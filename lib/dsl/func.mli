(** A function groups computes (in program order) with the schedule
    directives applied to them — the unit that [codegen()] compiles.

    The builder API mirrors the paper's embedded-DSL style: declare
    iterators and placeholders, add computes, then call scheduling
    primitives on the function value. *)

type t

val create : string -> t

val name : t -> string

(** Program order, first-declared first. *)
val computes : t -> Compute.t list

val directives : t -> Schedule.t list

val find_compute : t -> string -> Compute.t

(** [add_compute f c] registers [c]; names must be unique within [f]. *)
val add_compute : t -> Compute.t -> unit

(** Declare-and-register in one step, returning the compute. *)
val compute :
  t ->
  string ->
  iters:Var.t list ->
  ?where:Expr.cond list ->
  body:Expr.t ->
  dest:Placeholder.t * Expr.index list ->
  unit ->
  Compute.t

(** Append a schedule directive (also checks referenced computes exist). *)
val schedule : t -> Schedule.t -> unit

(** The specification's own fusion structure: its [after]/[fuse]
    directives at level >= 1, in application order, each paired with the
    two computes it joins (the anchor, or [c1], first).  A level-0
    [after] shares no loop with its anchor: it only reorders computes, a
    transformation like any other, so it is not structure.  The one
    owner of that decision: the reference program every semantic check
    compares against, the DSE's user fusion groups and the baselines'
    fused computes all read this list. *)
val structure : t -> (Schedule.t * (string * string)) list

(** All placeholders referenced by any compute, deduplicated by name. *)
val placeholders : t -> Placeholder.t list

(** True when [Auto_dse] was requested. *)
val wants_auto_dse : t -> bool

(** Number of "lines" of this DSL description, for the Fig. 15 LoC
    comparison: one per compute, one per distinct placeholder and iterator,
    one per directive, plus the codegen call. *)
val loc : t -> int

(** Same, counting only the [Auto_dse] directive (the autoDSE variant of
    Fig. 15). *)
val loc_auto : t -> int

val pp : Format.formatter -> t -> unit
