(** The scheduling primitives of Table II, recorded as first-class
    directives.  Directives are applied to the polyhedral IR by
    [Pom_polyir.Build]; keeping them as data decouples the algorithm
    specification from the schedule, exactly as in Halide-style DSLs. *)

type partition_kind = Cyclic | Block | Complete

type t =
  | Interchange of { compute : string; d1 : string; d2 : string }
  | Split of {
      compute : string;
      dim : string;
      factor : int;
      outer : string;
      inner : string;
    }
  | Tile of {
      compute : string;
      d1 : string;
      d2 : string;
      f1 : int;
      f2 : int;
      o1 : string;
      o2 : string;
      i1 : string;
      i2 : string;
    }
  | Skew of {
      compute : string;
      d1 : string;
      d2 : string;
      f1 : int;
      f2 : int;  (** must be [1] or [-1] to keep the transform unimodular *)
      n1 : string;
      n2 : string;
    }
  | After of { compute : string; anchor : string; level : int }
      (** [compute] executes after [anchor], sharing loops up to [level]
          (0 = fully sequenced, no shared loops). *)
  | Fuse of { c1 : string; c2 : string; level : int }
      (** Fuse the loop nests of [c1] and [c2] at levels 1..[level]. *)
  | Reverse of { compute : string; dim : string; new_dim : string }
      (** Flip a loop level's iteration direction (an "easily added
          customized transformation" in the Section V-B sense; the
          legality checker decides where it is safe). *)
  | Pipeline of { compute : string; dim : string; ii : int }
  | Unroll of { compute : string; dim : string; factor : int }
  | Partition of { array : string; factors : int list; kind : partition_kind }
  | Auto_dse

(** Constructors mirroring the paper's primitive syntax. *)

val interchange : string -> string -> string -> t

val split : string -> string -> int -> string -> string -> t

val tile :
  string -> string -> string -> int -> int -> string -> string -> string -> string -> t

val skew : string -> string -> string -> int -> int -> string -> string -> t

val after : string -> anchor:string -> level:int -> t

val fuse : string -> string -> level:int -> t

val reverse : string -> string -> string -> t

val pipeline : string -> string -> int -> t

val unroll : string -> string -> int -> t

val partition : string -> int list -> partition_kind -> t

val auto_dse : t

(** Is this a hardware-optimization directive (vs a loop transformation)? *)
val is_hardware : t -> bool

(** The directive in the paper's primitive syntax, e.g.
    [s.split(k, 8, ko, ki)]: the one printer, which {!pp} prints and the
    memo keys join. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
