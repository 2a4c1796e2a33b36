(** A whole function at the polyhedral IR level: its statements (with
    domains, schedules, index maps, hardware attributes) plus the array
    partition directives that apply function-wide.  Construction lowers the
    dependence-graph IR / DSL function into this form and applies the
    user-specified scheduling primitives in order (Fig. 9 (c)). *)

open Pom_dsl

type t = {
  func : Func.t;
  stmts : Stmt_poly.t list;  (** program order *)
  partitions : (string * (int list * Schedule.partition_kind)) list;
}

(** Lower a DSL function: initial domains/schedules in program order, then
    apply every recorded directive ([Auto_dse] is left to the DSE engine). *)
val of_func : Func.t -> t

(** Initial lowering without applying any directive (the DSE engine starts
    from here). *)
val of_func_unscheduled : Func.t -> t

(** Apply one more directive. *)
val apply : t -> Schedule.t -> t

(** Apply a directive list left to right. *)
val apply_all : t -> Schedule.t list -> t

val stmt : t -> string -> Stmt_poly.t

(** Partition factors for an array ([[1; 1; ...]] when unpartitioned).  A
    partition directive with one factor per array dimension applies; one
    with another number of factors does not, and the analyzer reports it
    as an error (POM207), as it does a directive naming an array no
    compute accesses. *)
val partition_of : t -> Placeholder.t -> int list

(** Generate the polyhedral AST for all statements (Fig. 9 (c) step 3). *)
val to_ast : t -> Pom_poly.Ast.t list

val pp : Format.formatter -> t -> unit
