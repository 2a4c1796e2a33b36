type policy = { retries : int; base_s : float }

let default = { retries = 3; base_s = 0.1 }
let max_backoff_s = 2.0

let backoff_s p ~attempt =
  Float.min max_backoff_s
    (p.base_s *. (2.0 ** float_of_int (max 1 attempt - 1)))

let run ?(policy = default) ?deadline_s ?on_retry ~retry_on f =
  let deadline =
    Option.map (fun d -> Unix.gettimeofday () +. d) deadline_s
  in
  let rec go attempt =
    try f ()
    with e when retry_on e && attempt <= policy.retries ->
      let delay = backoff_s policy ~attempt in
      let fits =
        match deadline with
        | None -> true
        | Some t -> Unix.gettimeofday () +. delay < t
      in
      if not fits then raise e;
      (match on_retry with
      | Some k -> k ~attempt ~delay_s:delay e
      | None -> ());
      Unix.sleepf delay;
      go (attempt + 1)
  in
  go 1
