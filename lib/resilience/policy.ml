type t = Abort | Degrade

(* Atomic for the same reason as {!Budget.current}: the daemon's executor
   thread and another compiling thread of the process may set and read it
   concurrently. *)
let current : t Atomic.t = Atomic.make Abort

let get () = Atomic.get current

let set p = Atomic.set current p

let degrading () = Atomic.get current = Degrade

let with_policy p f =
  let saved = Atomic.get current in
  Atomic.set current p;
  Fun.protect ~finally:(fun () -> Atomic.set current saved) f

let of_string = function
  | "abort" -> Ok Abort
  | "degrade" -> Ok Degrade
  | s -> Error (Printf.sprintf "unknown error policy %S (abort|degrade)" s)
