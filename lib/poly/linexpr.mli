(** Integer affine (linear + constant) expressions over named dimensions.

    A value represents [sum_i c_i * d_i + k] where each [d_i] is a dimension
    name, [c_i] an integer coefficient, and [k] the constant term.  This is
    the atom from which constraints, sets, maps, and schedules are built,
    mirroring the role of [isl_aff] in the Integer Set Library.

    The representation is private: compare expressions with
    {!equal}/{!compare}, never with polymorphic [=], [compare] or
    [Hashtbl.hash]. *)

type t

val zero : t

val const : int -> t

(** [var d] is the expression [1 * d]. *)
val var : string -> t

(** [term c d] is the expression [c * d]. *)
val term : int -> string -> t

val add : t -> t -> t

val sub : t -> t -> t

val neg : t -> t

(** [scale k e] multiplies every coefficient and the constant by [k]. *)
val scale : int -> t -> t

(** [coeff e d] is the coefficient of dimension [d] (0 when absent). *)
val coeff : t -> string -> int

val const_of : t -> int

(** Dimensions with a non-zero coefficient, sorted by name. *)
val dims : t -> string list

(** [is_const e] holds when no dimension has a non-zero coefficient. *)
val is_const : t -> bool

(** [subst d e' e] replaces dimension [d] with expression [e'] in [e]. *)
val subst : string -> t -> t -> t

(** [subst_all bindings e] applies all bindings simultaneously (not
    sequentially): occurrences of bound dims in the replacement expressions
    are not themselves rewritten. *)
val subst_all : (string * t) list -> t -> t

(** [rename_dim old_name new_name e] renames a dimension. *)
val rename_dim : string -> string -> t -> t

(** [eval env e] evaluates under a total assignment; raises [Not_found] if a
    dimension with non-zero coefficient is missing from [env]. *)
val eval : (string -> int) -> t -> int

(** GCD of all coefficients (not the constant); 0 for constant expressions. *)
val content : t -> int

(** Divide all coefficients and the constant by [k]; raises
    [Invalid_argument] when not exactly divisible. *)
val div_exact : int -> t -> t

val equal : t -> t -> bool

(** Lexicographic over the (dimension, coefficient) pairs in name order, a
    shorter prefix first, then the constant. *)
val compare : t -> t -> int

(** [compare_gradient a b] is {!compare} ignoring both constants. *)
val compare_gradient : t -> t -> int

(** [opposite_gradient a b] holds when every coefficient of [a] is the
    negation of the same coefficient of [b] (constants ignored). *)
val opposite_gradient : t -> t -> bool

(** [single_dim e] is [Some (d, c)] when [c * d] is the only non-constant
    term of [e]. *)
val single_dim : t -> (string * int) option

val pp : Format.formatter -> t -> unit

val to_string : t -> string
