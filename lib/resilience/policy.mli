(** The ambient error-handling policy, selected by [--on-error].

    [Abort] (the default) turns any guarded failure into a typed
    {!Error.Error} that unwinds to the driver and its exit-code contract.
    [Degrade] lets each guard apply its conservative fallback instead:
    a skippable pass failure becomes a POM3xx diagnostic, a timed-out
    dependence proof assumes the dependence, a timed-out legality proof
    rejects the transform, and a failed DSE candidate evaluation is
    skipped. *)

type t = Abort | Degrade

val get : unit -> t

val set : t -> unit

(** Whether the current policy is [Degrade]. *)
val degrading : unit -> bool

(** Run [f] under [policy], restoring the previous policy afterwards. *)
val with_policy : t -> (unit -> 'a) -> 'a

val of_string : string -> (t, string) result
