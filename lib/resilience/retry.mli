(** Capped exponential backoff.

    The client side of the self-healing story: a transient transport
    failure (daemon restarting, socket mid-handover, executor respawning)
    deserves a bounded number of delayed re-attempts, not an immediate
    hard failure.  The schedule is a pure function of the policy, so tests
    and the chaos harness replay the same timing decisions, and it is
    deadline-aware: when the remaining wall-clock budget cannot cover the
    next sleep, the last failure is re-raised immediately rather than
    overshooting the deadline. *)

type policy = {
  retries : int;  (** re-attempts after the first try (total tries = retries + 1) *)
  base_s : float;  (** backoff before the first retry *)
}

(** 3 retries, 0.1 s base. *)
val default : policy

(** [backoff_s policy ~attempt] is the sleep before retry [attempt]
    (1-based): [base_s], doubling per further retry, capped at 2 s. *)
val backoff_s : policy -> attempt:int -> float

(** [run ~retry_on f] calls [f ()]; when it raises [e] with
    [retry_on e = true] and retries remain, sleeps the backoff and tries
    again.  Exceptions [retry_on] rejects propagate immediately.
    [deadline_s] bounds the {e total} wall clock across every attempt and
    sleep: a retry whose backoff does not fit in the remaining budget is
    abandoned and the last failure re-raised, so [run] never outlives the
    deadline by more than [f]'s own final attempt.  [on_retry] (for trace
    lines) observes each scheduled retry before its sleep. *)
val run :
  ?policy:policy ->
  ?deadline_s:float ->
  ?on_retry:(attempt:int -> delay_s:float -> exn -> unit) ->
  retry_on:(exn -> bool) ->
  (unit -> 'a) ->
  'a
