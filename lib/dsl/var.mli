(** Loop iterators with half-open integer ranges, as declared by
    [var i("i", 0, 32)] in the paper's DSL (Fig. 4). *)

type t = { name : string; lb : int; ub : int (** exclusive *) }

(** [make name lb ub]: requires [lb < ub] and a name free of the characters
    reserved by the polyhedral layer ([$]). *)
val make : string -> int -> int -> t

(** Number of iterations, [ub - lb]. *)
val extent : t -> int

(** The two domain constraints [lb <= name < ub]. *)
val constraints : t -> Pom_poly.Constr.t list
