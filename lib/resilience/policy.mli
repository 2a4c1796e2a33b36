(** The ambient error-handling policy, selected by [--on-error].

    [Abort] (the default) turns any guarded failure into a typed
    {!Error.Error} that unwinds to the driver and its exit-code contract.
    [Degrade] lets a pass that declares a fallback apply it instead (a
    failed lint or IR verification becomes a POM3xx warning, a failed or
    timed-out legality proof rejects the schedule), and lets the searches
    skip a failed DSE candidate or stop at the incumbent when the budget
    runs out.  Read by [Pom_pipeline.Pass.guarded] and
    [Pom_dse.Stage2.step] only. *)

type t = Abort | Degrade

val get : unit -> t

val set : t -> unit

(** Whether the current policy is [Degrade]. *)
val degrading : unit -> bool

(** Run [f] under [policy], restoring the previous policy afterwards. *)
val with_policy : t -> (unit -> 'a) -> 'a

val of_string : string -> (t, string) result
