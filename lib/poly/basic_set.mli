(** A basic integer set: a conjunction of affine constraints over an ordered
    tuple of named dimensions — the analogue of [isl_basic_set].

    Iteration domains of loop nests are basic sets; all POM loop
    transformations are computed as substitutions and projections on them. *)

type t

(** [make dims constrs] builds a set over the ordered dimension tuple [dims].
    Constraints may only mention listed dimensions; violations raise
    [Invalid_argument].  Duplicate dimension names raise too. *)
val make : string list -> Constr.t list -> t

val dims : t -> string list

val n_dims : t -> int

val constraints : t -> Constr.t list

val add_constraint : Constr.t -> t -> t

val add_constraints : Constr.t list -> t -> t

(** Intersection; both sets must have the same dimension tuple. *)
val intersect : t -> t -> t

(** [rename_dim old_name new_name s]: [new_name] must not already occur. *)
val rename_dim : string -> string -> t -> t

(** [change_space new_dims bindings s] re-indexes the set: the result ranges
    over [new_dims], and every old dimension [d] of [s] is replaced by
    [bindings d], an expression over [new_dims].  Extra constraints can be
    supplied to relate the new dimensions (e.g. strip-mining remainders).
    This is the preimage of [s] under the affine map [bindings]. *)
val change_space :
  new_dims:string list ->
  bindings:(string * Linexpr.t) list ->
  ?extra:Constr.t list ->
  t ->
  t

(** [fix_dim d v s] substitutes the constant [v] for dimension [d] and drops
    [d] from the tuple.  Equivalent to [change_space] with a constant
    binding, but without re-validating every constraint — this is the
    per-value step of {!Feasible}'s point enumeration.  Returns [s] unchanged
    when [d] is not a dimension of [s]. *)
val fix_dim : string -> int -> t -> t

(** [project_out d s] eliminates dimension [d] by Fourier–Motzkin: the result
    is the (rational) shadow over the remaining dimensions.  Exact over the
    integers whenever [d]'s bounding coefficients include 1 (true for the
    sets POM manipulates after equality normalization); otherwise it is an
    overapproximation.

    FM combination is quadratic per elimination: a projection that would
    materialize more than 20,000 intermediate constraints raises
    {!Pom_resilience.Budget.Budget_exceeded} at [poly:fm-projection]
    instead of spinning, and every elimination also checks the ambient
    {!Pom_resilience.Budget}, so a deadline bounds chained projections. *)
val project_out : string -> t -> t

(** [project_onto keep s] eliminates all dimensions not in [keep], preserving
    the relative order of [keep] as in [s] (names in [keep] but not in [s]
    are ignored). *)
val project_onto : string list -> t -> t

(** Membership test under a total assignment of the dimensions. *)
val mem : (string -> int) -> t -> bool

(** Syntactic check for an obviously empty set: a contradictory constant
    constraint after normalization, or a single variable whose constant
    lower bound exceeds its constant upper bound (read directly off the
    single-variable constraints, no elimination).  Complete emptiness is in
    {!Feasible}. *)
val is_obviously_empty : t -> bool

(** Compact the constraint system: normalize (detecting constant
    contradictions), drop tautologies and duplicates, and prune pairwise
    redundancies — of two inequalities bounding the same gradient only the
    tighter survives, and inequalities decided by an equality are removed
    (or turned into a contradiction).  Memoized: re-simplifying an
    already-compact set is O(1), and {!project_out} returns compact sets. *)
val simplify : t -> t

(** [bounds_of d s] splits the constraints of [s] into lower bounds on [d]
    (pairs [(c, e)] meaning [c*d >= e] with [c > 0]), upper bounds
    ([c*d <= e] with [c > 0]), and the constraints not mentioning [d].
    Equalities contribute one bound to each side. *)
val bounds_of :
  string ->
  t ->
  (int * Linexpr.t) list * (int * Linexpr.t) list * Constr.t list

(** [const_range d s] returns constant bounds [(lb, ub)] for [d] obtained by
    projecting out all other dimensions; [None] on either side when
    unbounded. *)
val const_range : string -> t -> int option * int option

val pp : Format.formatter -> t -> unit

val to_string : t -> string
