(** Finite unions of basic sets over a common dimension tuple — the analogue
    of [isl_set].  Used for disjunctive objects such as lexicographic
    precedence relations and multi-level dependence polyhedra. *)

type t

(** Empty union over the given dimensions. *)
val empty : string list -> t

val of_basic : Basic_set.t -> t

val of_list : string list -> Basic_set.t list -> t

val dims : t -> string list

val disjuncts : t -> Basic_set.t list

val union : t -> t -> t

(** Distributes over the disjuncts of both arguments. *)
val intersect : t -> t -> t

val add_constraint : Constr.t -> t -> t

val project_onto : string list -> t -> t

val mem : (string -> int) -> t -> bool

val is_empty : t -> bool

(** Drop disjuncts that are integer-empty. *)
val coalesce : t -> t

(** Minimum / maximum of an affine expression over all disjuncts. *)
val min_of : Linexpr.t -> t -> int option

val max_of : Linexpr.t -> t -> int option

val pp : Format.formatter -> t -> unit
