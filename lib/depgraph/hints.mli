(** Transformation guidance derived from fine-grained analysis — the
    "Guidance" output of Fig. 8 that steers the DSE's dependence-aware
    stage: keep the loop order, interchange to a better one, or skew when
    no permutation frees the innermost level. *)

type suggestion =
  | Keep  (** innermost level already dependence-free *)
  | Reorder of string list
      (** desired loop order (outermost first); legal and innermost-free *)
  | Skew_hint of { d1 : string; d2 : string; factor : int; order : string list }
      (** skew [d2] by [factor * d1] (new inner dim [d1*factor + d2]), then
          use [order] (over the original dim names; the skewed dim keeps
          [d2]'s position) *)
  | Tight of int
      (** unavoidable loop-carried dependence at the innermost level; the
          payload is the minimal carried distance *)

(** Analyze one node and suggest the transformation that frees the
    innermost loop for unrolling under an outer pipeline. *)
val suggest : Finegrain.t -> suggestion

val pp : Format.formatter -> suggestion -> unit
