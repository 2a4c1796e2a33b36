(** The order relation between statement instances: cross-statement
    dependences compare instances by their (2d+1) *schedule-time vectors*
    rather than their iteration vectors.  The legality verifier
    ({!Pom_polyir.Legality}) builds each statement's time vectors, original
    and transformed, and intersects the conflict set of an access pair with
    the branches of the lexicographic order below. *)

(** A schedule-time coordinate: a static scalar or an affine coordinate
    over (renamed) iteration dimensions. *)
type time_item = C of int | V of Linexpr.t

(** Pad the shorter vector with trailing zero scalars. *)
val align : time_item list -> time_item list -> time_item list * time_item list

(** [order_branches a b] returns one constraint conjunction per viable
    branch of the lexicographic comparison [a < b]; their disjunction is
    the order relation.  Vectors must be aligned.  With [~start:m] only the
    branches at positions [>= m] are returned, each still with its prefix
    equalities: the order relation restricted to pairs equal before [m]. *)
val order_branches :
  ?start:int -> time_item list -> time_item list -> Constr.t list list
