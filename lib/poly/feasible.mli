(** Integer feasibility and point enumeration for basic sets.

    Emptiness is decided by equality elimination with a GCD divisibility
    test, Fourier–Motzkin elimination for the remaining inequalities
    (exactly eliminable dimensions first, while every step so far was
    exact), and — when the eliminated dimensions kept non-unit
    coefficients (where FM's rational shadow might overapproximate the
    integer points) — a bounded exact search over the set's constant
    bounding box.  Loop-nest iteration domains and their dependence
    polyhedra, tiled ones included, usually fall in the exact fragment. *)

(** [is_empty s] holds iff [s] contains no integer point. *)
val is_empty : Basic_set.t -> bool

(** [sample s] is some integer point of [s] (as an assignment in dimension
    order) or [None] when empty.  The set must be bounded in every
    dimension; unbounded dimensions are searched within a fixed window. *)
val sample : Basic_set.t -> int list option

(** [enumerate ?limit s] lists all integer points of [s] in lexicographic
    order, up to [limit] (default 100_000; raises [Invalid_argument] when
    the limit is exceeded).  Dimensions must be bounded. *)
val enumerate : ?limit:int -> Basic_set.t -> int list list

(** Number of integer points (via {!enumerate}'s strategy but without
    materializing the list). *)
val count : ?limit:int -> Basic_set.t -> int

(** [min_of e s] / [max_of e s] optimize an affine expression over the
    integer points of [s]; [None] when [s] is empty or the expression is
    unbounded in the requested direction. *)
val min_of : Linexpr.t -> Basic_set.t -> int option

val max_of : Linexpr.t -> Basic_set.t -> int option

(** [range_nonempty e s] is [(min_of e s, max_of e s)] for a set the caller
    has already proven non-empty: both bounds come from one projection onto
    [e], with no emptiness test.  On an empty set the result is
    meaningless. *)
val range_nonempty : Linexpr.t -> Basic_set.t -> int option * int option
