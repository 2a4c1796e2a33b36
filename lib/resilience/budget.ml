exception Budget_exceeded of { site : string; reason : string }

type t = {
  deadline : float option;  (* absolute Unix.gettimeofday seconds *)
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

let with_budget ?deadline_s ?cancel f =
  match (deadline_s, cancel) with
  | None, None -> f ()
  | _ ->
      let saved = Atomic.get current in
      Atomic.set current
        (Some
           {
             deadline =
               Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
             cancel;
           });
      Fun.protect ~finally:(fun () -> Atomic.set current saved) f

let exceeded site reason = raise (Budget_exceeded { site; reason })

let check site =
  match Atomic.get current with
  | None -> ()
  | Some b -> (
      (match b.cancel with
      | Some poll ->
          (* a cancel poll that itself raises must not mask the real state:
             treat an exception as "not cancelled" and let the deadline
             decide *)
          if (try poll () with _ -> false) then
            exceeded site "request cancelled"
      | None -> ());
      match b.deadline with
      | Some d ->
          let now = Unix.gettimeofday () in
          if now > d then
            exceeded site
              (Printf.sprintf "deadline passed %.3f s ago" (now -. d))
      | None -> ())
