(** Fine-grained (intra-node) dependence analysis of Section V-A: distance
    and direction vectors for the loop-carried dependences of one compute,
    summarized as per-dimension distance boxes that downstream layers use to
    decide loop orders, skewing, and achievable initiation intervals. *)

open Pom_dsl

(** Distance box of one carried dependence: for each iterator of the
    compute (in its declared loop order), the [min, max] range of
    [sink - source]; [None] = unbounded on that side. *)
type dep_box = (string * (int option * int option)) list

type t = {
  compute : Compute.t;
  self_deps : dep_box list;
      (** one per (conflicting read access, carried level) of the
          destination array *)
  reduction_dims : string list;
}

(** Analyze the loop-carried self-dependences of a compute: its store
    against every load of the same array (the accumulation/stencil pattern
    of Fig. 8). *)
val analyze : Compute.t -> t

(** The compute's dependence problem ({!Pom_poly.Dep.key}): two computes
    with equal keys have equal {!t.self_deps}. *)
val key : Compute.t -> string

(** Minimal positive distance carried by dimension [d] across all deps
    whose first non-zero (in the order given) sits at [d]; [None] when no
    dependence is carried at [d] under that order. *)
val carried_distance_at : t -> order:string list -> string -> int option

(** Under loop order [order] (outermost first), is every dependence carried
    strictly before the innermost level (so the innermost loop can be
    unrolled and the enclosing pipeline reaches II = 1)?  Also requires
    legality: every dependence's first non-zero component must be
    positive. *)
val innermost_free : t -> order:string list -> bool

(** Is [order] a legal execution order (all dependences lexicographically
    positive)? *)
val legal_order : t -> order:string list -> bool

