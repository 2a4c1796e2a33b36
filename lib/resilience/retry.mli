(** Capped exponential backoff with deterministic seeded jitter.

    The client side of the self-healing story: a transient transport
    failure (daemon restarting, socket mid-handover, executor respawning)
    deserves a bounded number of delayed re-attempts, not an immediate
    hard failure — and a {e deterministic} schedule, so tests and the
    chaos harness replay the exact same timing decisions from a seed.

    Jitter is a pure hash of [(seed, attempt)]: two clients with
    different seeds desynchronize their retry storms, while one client
    re-run with the same seed sleeps the identical sequence.  The
    schedule is deadline-aware: when the remaining wall-clock budget
    cannot cover the next sleep, the last failure is re-raised
    immediately rather than overshooting the deadline. *)

type policy = {
  retries : int;  (** re-attempts after the first try (total tries = retries + 1) *)
  base_s : float;  (** backoff before the first retry, pre-jitter *)
  factor : float;  (** multiplier per further retry (2.0 = doubling) *)
  max_s : float;  (** cap on any single pre-jitter backoff *)
  seed : int;  (** jitter seed; same seed → same schedule *)
}

(** 3 retries, 0.1 s base, doubling, 2 s cap, seed 0. *)
val default : policy

(** [backoff_s policy ~attempt] is the sleep before retry [attempt]
    (1-based): [min max_s (base_s *. factor^(attempt-1))] scaled by a
    deterministic jitter factor in [0.5, 1.0] drawn from
    [(seed, attempt)].  Pure — no clock, no global state. *)
val backoff_s : policy -> attempt:int -> float

(** [run ~retry_on f] calls [f ()]; when it raises [e] with
    [retry_on e = true] and retries remain, sleeps the deterministic
    backoff and tries again.  Exceptions [retry_on] rejects propagate
    immediately.  [deadline_s] bounds the {e total} wall clock across
    every attempt and sleep: a retry whose backoff does not fit in the
    remaining budget is abandoned and the last failure re-raised, so
    [run] never outlives the deadline by more than [f]'s own final
    attempt.  [on_retry] (for trace lines) observes each scheduled
    retry before its sleep. *)
val run :
  ?policy:policy ->
  ?deadline_s:float ->
  ?on_retry:(attempt:int -> delay_s:float -> exn -> unit) ->
  retry_on:(exn -> bool) ->
  (unit -> 'a) ->
  'a
