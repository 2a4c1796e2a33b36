(** Cooperative deadlines.

    A budget is an ambient, process-wide token carrying an optional
    wall-clock deadline and an optional external cancel poll.  Hot loops
    that can blow up (Fourier–Motzkin projection, integer-point
    enumeration, legality pair checking, QoR evaluation) call {!check} at
    their natural unit of work; when the budget is exhausted the call
    raises {!Budget_exceeded}, a typed exception the guard layer
    ({!Pom_pipeline.Pass.guarded}, the DSE searches) turns into a
    diagnostic or a clean abort.

    The token lives in an [Atomic]: the compile daemon's executor thread
    installs one per request, and another thread of the same process may
    install or read one concurrently. *)

exception
  Budget_exceeded of {
    site : string;  (** the checkpoint that noticed, e.g. ["poly:fm-projection"] *)
    reason : string;  (** human-readable cause: deadline or cancellation *)
  }

(** Run [f] under a budget of [deadline_s] seconds of wall clock from now
    and/or an external [cancel] poll (e.g. "has this request's client
    disconnected?"), checked at every budget checkpoint — when it returns
    true the work aborts with {!Budget_exceeded} exactly like an expired
    deadline.  The poll runs on hot paths: it must be cheap (an
    [Atomic.get], not a syscall).  The previous budget is restored
    afterwards (also on exceptions).  With no bound given, [f] runs under
    the budget already in force. *)
val with_budget :
  ?deadline_s:float -> ?cancel:(unit -> bool) -> (unit -> 'a) -> 'a

(** [check site] raises {!Budget_exceeded} when the deadline has passed or
    the cancel poll fires; cheap no-op without a budget. *)
val check : string -> unit
