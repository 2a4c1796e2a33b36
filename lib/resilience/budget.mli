(** Cooperative deadlines and work budgets.

    A budget is an ambient, process-wide token carrying an optional
    wall-clock deadline and an optional work-tick cap.  Hot loops that can
    blow up (Fourier–Motzkin projection, integer-point enumeration,
    legality pair checking, QoR synthesis) call {!check} or {!tick} at
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
    reason : string;  (** human-readable cause: deadline or tick cap *)
  }

(** Install an ambient budget: [deadline_s] seconds of wall clock from now
    and/or at most [max_ticks] work ticks and/or an external [cancel]
    poll (e.g. "has this request's client disconnected?"), checked at
    every budget checkpoint — when it returns true the work aborts with
    {!Budget_exceeded} exactly like an expired deadline.  The poll runs
    on hot paths: it must be cheap (an [Atomic.get], not a syscall).
    Replaces any current budget.  With no bound given this clears the
    budget. *)
val install :
  ?deadline_s:float -> ?max_ticks:int -> ?cancel:(unit -> bool) -> unit -> unit

(** Remove the ambient budget: all checks become no-ops. *)
val clear : unit -> unit

(** Whether a budget is currently installed. *)
val active : unit -> bool

(** Run [f] under a budget, restoring the previous budget afterwards (also
    on exceptions).  With no bound given, [f] runs under the budget
    already in force. *)
val with_budget :
  ?deadline_s:float ->
  ?max_ticks:int ->
  ?cancel:(unit -> bool) ->
  (unit -> 'a) ->
  'a

(** Work ticks consumed under the current budget (0 when none). *)
val ticks : unit -> int

(** [check site] raises {!Budget_exceeded} when the deadline has passed or
    the tick cap is spent; cheap no-op without an installed budget. *)
val check : string -> unit

(** [tick ?cost site] consumes [cost] (default 1) work ticks, then
    {!check}s.  Cost should approximate the unit of work guarded (e.g. the
    number of constraints an FM combination materializes). *)
val tick : ?cost:int -> string -> unit
