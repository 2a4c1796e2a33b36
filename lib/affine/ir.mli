(** The annotated affine dialect (Section V-C): explicit loop structure
    (lowered from the polyhedral AST) with HLS pragma information carried as
    attributes on loops and arrays — the last IR before HLS C emission. *)

open Pom_dsl

(** HLS attributes attached to a loop. *)
type attrs = {
  pipeline_ii : int option;  (** target initiation interval *)
  unroll_factor : int option;
}

val no_attrs : attrs

(** A statement: destination access and right-hand side, with all indices
    rewritten over the AST loop iterators. *)
type stmt = {
  compute_name : string;
  dest : Placeholder.t * Expr.index list;
  rhs : Expr.t;
}

type node =
  | For of {
      iter : string;
      lbs : Pom_poly.Ast.bound list;
      ubs : Pom_poly.Ast.bound list;
      attrs : attrs;
      body : node list;
    }
  | If of Pom_poly.Constr.t list * node list
  | Op of stmt

(** Array-level HLS information: partition factors per dimension and
    partition kind. *)
type array_info = {
  placeholder : Placeholder.t;
  partition : int list;
  partition_kind : Schedule.partition_kind;
}

type func = { name : string; arrays : array_info list; body : node list }

(** The constant value of a bound with unit coefficient, when its
    expression is constant. *)
val const_bound : Pom_poly.Ast.bound -> int option

(** Constant trip count of a loop when both bounds are single constants. *)
val const_extent : node -> int option

(** All statements in emission order. *)
val stmts : node list -> stmt list

(** [(loops, ops)]: the number of [For] nodes and of statement [Op]s in a
    body, counted recursively (pass-statistics instrumentation). *)
val counts : node list -> int * int

val pp_node : Format.formatter -> node -> unit

