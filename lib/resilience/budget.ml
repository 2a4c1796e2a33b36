exception Budget_exceeded of { site : string; reason : string }

type t = {
  deadline : float option;  (* absolute Unix.gettimeofday seconds *)
  max_ticks : int option;
  ticks : int Atomic.t;
  cancel : (unit -> bool) option;
      (* external cancellation (e.g. a compile server noticing its client
         disconnected): polled on every budget check, so cancellation
         propagates through the same cooperative checkpoints a deadline
         does *)
}

(* The ambient budget, process-wide so a deadline covers every check
   without threading a token through every call.  An [Atomic] because the
   compile daemon's executor thread installs it while other threads of the
   same process (an in-process client, a test) may install or read one. *)
let current : t option Atomic.t = Atomic.make None

let install ?deadline_s ?max_ticks ?cancel () =
  match (deadline_s, max_ticks, cancel) with
  | None, None, None -> Atomic.set current None
  | _ ->
      Atomic.set current
        (Some
           {
             deadline =
               Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
             max_ticks;
             ticks = Atomic.make 0;
             cancel;
           })

let clear () = Atomic.set current None

let active () = Atomic.get current <> None

let with_budget ?deadline_s ?max_ticks ?cancel f =
  match (deadline_s, max_ticks, cancel) with
  | None, None, None -> f ()
  | _ ->
      let saved = Atomic.get current in
      install ?deadline_s ?max_ticks ?cancel ();
      Fun.protect ~finally:(fun () -> Atomic.set current saved) f

let ticks () =
  match Atomic.get current with
  | None -> 0
  | Some b -> Atomic.get b.ticks

let exceeded site reason = raise (Budget_exceeded { site; reason })

let check_budget b site =
  (match b.cancel with
  | Some poll ->
      (* a cancel poll that itself raises must not mask the real state:
         treat an exception as "not cancelled" and let the other bounds
         decide *)
      if (try poll () with _ -> false) then
        exceeded site "request cancelled"
  | None -> ());
  (match b.deadline with
  | Some d ->
      let now = Unix.gettimeofday () in
      if now > d then
        exceeded site (Printf.sprintf "deadline passed %.3f s ago" (now -. d))
  | None -> ());
  match b.max_ticks with
  | Some m ->
      let n = Atomic.get b.ticks in
      if n > m then
        exceeded site (Printf.sprintf "work budget spent (%d ticks > %d)" n m)
  | None -> ()

let check site =
  match Atomic.get current with
  | None -> ()
  | Some b -> check_budget b site

let tick ?(cost = 1) site =
  match Atomic.get current with
  | None -> ()
  | Some b ->
      ignore (Atomic.fetch_and_add b.ticks (max 1 cost));
      check_budget b site
