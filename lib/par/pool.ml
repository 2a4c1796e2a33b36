type task = unit -> unit

type t = {
  size : int;
  mutable workers : unit Domain.t list;
  queue : task Queue.t;
  lock : Mutex.t;
  wakeup : Condition.t; (* work arrived, or the pool is closing *)
  mutable closed : bool;
}

(* One flag per domain: set permanently on worker domains, and temporarily on
   the submitting domain while it executes tasks of its own batch. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get in_worker_key

let rec worker_loop pool =
  Mutex.lock pool.lock;
  let rec next () =
    match Queue.take_opt pool.queue with
    | Some task -> Some task
    | None ->
        if pool.closed then None
        else begin
          Condition.wait pool.wakeup pool.lock;
          next ()
        end
  in
  let task = next () in
  Mutex.unlock pool.lock;
  match task with
  | None -> ()
  | Some task ->
      (* A task that raises must not tear the worker domain down: every
         batch task already captures its own failures into its result cell,
         so anything escaping here is a bug in the rendezvous bookkeeping —
         swallow it and keep the domain serving, because a silently shrunk
         pool deadlocks the next full-width batch. *)
      (try task () with _ -> ());
      worker_loop pool

let create n =
  let size = max 1 n in
  let pool =
    {
      size;
      workers = [];
      queue = Queue.create ();
      lock = Mutex.create ();
      wakeup = Condition.create ();
      closed = false;
    }
  in
  pool.workers <-
    List.init (size - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker_key true;
            worker_loop pool));
  pool

let size pool = pool.size

let shutdown pool =
  Mutex.lock pool.lock;
  let workers = pool.workers in
  pool.workers <- [];
  if not pool.closed then begin
    pool.closed <- true;
    Condition.broadcast pool.wakeup
  end;
  Mutex.unlock pool.lock;
  List.iter Domain.join workers

let with_pool n f =
  let pool = create n in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

type 'b cell = Pending | Value of 'b | Error of exn * Printexc.raw_backtrace

let parallel_map pool f xs =
  if in_worker () then
    invalid_arg "Pool.parallel_map: nested submission from inside a pool task";
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when pool.size = 1 -> List.map f xs
  | xs ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let results = Array.make n Pending in
      (* Per-batch rendezvous: tasks of this batch count down [remaining];
         the submitter waits on [settled] after helping drain the queue. *)
      let batch_lock = Mutex.create () in
      let settled = Condition.create () in
      let remaining = ref n in
      let run_task i () =
        let was_worker = Domain.DLS.get in_worker_key in
        Domain.DLS.set in_worker_key true;
        (results.(i) <-
          (match
             (* cooperative deadline check on entry, and a fault-injection
                site covering the task body *)
             Pom_resilience.Budget.check "pool:task";
             Pom_resilience.Fault.point "pool:task";
             f items.(i)
           with
          | v -> Value v
          | exception Pom_resilience.Fault.Killed site ->
              (* the executing domain "died" mid-task: the task fails with
                 a typed error, the pool keeps its width *)
              Error
                ( Pom_resilience.Error.Error
                    (Pom_resilience.Error.make ~code:"POM305"
                       ~context:[ site ]
                       "pool worker died executing this task"),
                  Printexc.get_raw_backtrace () )
          | exception e -> Error (e, Printexc.get_raw_backtrace ())));
        Domain.DLS.set in_worker_key was_worker;
        Mutex.lock batch_lock;
        decr remaining;
        if !remaining = 0 then Condition.signal settled;
        Mutex.unlock batch_lock
      in
      Mutex.lock pool.lock;
      for i = 0 to n - 1 do
        Queue.add (run_task i) pool.queue
      done;
      Condition.broadcast pool.wakeup;
      Mutex.unlock pool.lock;
      (* The submitter works too: it drains whatever is still queued (tasks
         of this batch, or of a concurrent one — each counts down its own
         batch), then blocks until its own batch settles. *)
      let rec help () =
        Mutex.lock pool.lock;
        let task = Queue.take_opt pool.queue in
        Mutex.unlock pool.lock;
        match task with
        | Some task ->
            task ();
            help ()
        | None -> ()
      in
      help ();
      Mutex.lock batch_lock;
      while !remaining > 0 do
        Condition.wait settled batch_lock
      done;
      Mutex.unlock batch_lock;
      Array.to_list
        (Array.map
           (function
             | Value v -> v
             | Error (e, bt) -> Printexc.raise_with_backtrace e bt
             | Pending -> assert false)
           results)

let parallel_filter_map pool f xs =
  List.filter_map Fun.id (parallel_map pool f xs)
