(** Array storage for the functional simulator: named multi-dimensional
    float arrays with deterministic pseudo-random initialization, so that a
    reference execution and a transformed execution can be compared
    bit-for-bit (modulo floating-point reassociation tolerance). *)

type t

(** Allocate and deterministically initialize the arrays of the given
    placeholders (values depend only on array name and index). *)
val create : Pom_dsl.Placeholder.t list -> t

(** Allocate with every element set to a constant. *)
val create_filled : float -> Pom_dsl.Placeholder.t list -> t

val get : t -> string -> int list -> float

val set : t -> string -> int list -> float -> unit

val copy : t -> t

(** Arrays present, sorted by name. *)
val names : t -> string list

(** Max absolute elementwise difference across all arrays; the two stores
    must have the same arrays and shapes.  Elements that are [Float.equal]
    (the same infinity, or NaN on both sides) differ by 0; NaN on one side
    only differs by infinity, so the result is never NaN. *)
val max_diff : t -> t -> float

(** [equal ~eps a b] holds when {!max_diff} is at most [eps]. *)
val equal : eps:float -> t -> t -> bool

(** Per-array element sums (for checksum comparison against compiled-C
    runs), sorted by array name. *)
val checksums : t -> (string * float) list
