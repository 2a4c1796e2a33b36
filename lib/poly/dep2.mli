(** Cross-statement dependence analysis: conflicts between accesses of two
    different statements, each with its own iteration domain and (2d+1)
    schedule.  This is the general form behind fusion legality and
    whole-program transformation verification — statement instances are
    compared by their *schedule vectors* rather than their iteration
    vectors. *)

(** One statement's side of the query. *)
type side = {
  domain : Basic_set.t;
  sched : Sched.t;  (** its [Dim] items must be exactly the domain dims *)
  access : Dep.access;  (** indices over the domain dims *)
}

(** Does any instance pair conflict (same array element) with the [source]
    instance scheduled strictly before the [sink] instance?  Statements may
    be the same (pass the same side twice for self-dependences under a
    transformed schedule). *)
val exists_forward : source:side -> sink:side -> bool

(** Does any conflicting pair execute in the *reverse* order ([sink]
    scheduled strictly before [source])?  A transformation is illegal when
    a dependence that originally ran source->sink now has a conflicting
    pair scheduled sink-first. *)
val exists_backward : source:side -> sink:side -> bool

(** The schedule-time distance range of the conflict set at each shared
    schedule level: min/max of [time(sink) - time(source)] per level, or
    [None] when no conflict exists. *)
val time_distance :
  source:side -> sink:side -> (int option * int option) list option

(** {1 Low-level building blocks}

    Exposed for clients (such as the legality verifier) that compare
    custom schedule-time vectors — e.g. an original schedule composed
    through a transformation's index map. *)

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
