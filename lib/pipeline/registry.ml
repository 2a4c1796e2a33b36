(* Pass metadata is registered from module initializers and from
   pipelines built on any thread (pass construction is lazy), so the table
   is mutex-guarded. *)
let table : (string, string) Hashtbl.t = Hashtbl.create 32

let lock = Mutex.create ()

let register ~name ~descr =
  Mutex.lock lock;
  if not (Hashtbl.mem table name) then Hashtbl.add table name descr;
  Mutex.unlock lock

let mem name =
  Mutex.lock lock;
  let found = Hashtbl.mem table name in
  Mutex.unlock lock;
  found

let all () =
  Mutex.lock lock;
  let entries = Hashtbl.fold (fun n d acc -> (n, d) :: acc) table [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries
