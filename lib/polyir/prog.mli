(** A whole function at the polyhedral IR level: its statements (with
    domains, schedules, index maps, hardware attributes) plus the array
    partition directives that apply function-wide.  Construction lowers the
    dependence-graph IR / DSL function into this form and applies the
    user-specified scheduling primitives in order (Fig. 9 (c)). *)

open Pom_dsl

(** Every array's resolved partition factors, read with {!partition_of}. *)
type factors

type t = {
  func : Func.t;
  stmts : Stmt_poly.t list;  (** program order *)
  partitions : (string * (int list * Schedule.partition_kind)) list;
      (** the partition directives as written, the last one per array:
          the analyzer reports those that do not apply *)
  factors : factors;
      (** the factors every array of [func] gets, resolved as each
          directive is applied *)
}

(** Lower a DSL function: initial domains/schedules in program order, then
    apply every recorded directive ([Auto_dse] is left to the DSE engine). *)
val of_func : Func.t -> t

(** Initial lowering without applying any directive (the DSE engine starts
    from here). *)
val of_func_unscheduled : Func.t -> t

(** The reference program every semantic check compares against: the
    unscheduled lowering plus the specification's fusion structure
    ({!Pom_dsl.Func.structure}), with every other directive left out.
    The legality-check pass, [--verify-each], [Pom.check_legality], the
    semantic refute oracle and [Interp.divergence] all compare against
    it. *)
val reference : Func.t -> t

(** Apply one more directive. *)
val apply : t -> Schedule.t -> t

(** Apply a directive list left to right. *)
val apply_all : t -> Schedule.t list -> t

val stmt : t -> string -> Stmt_poly.t

(** The per-dimension partition factors the array named [array] gets
    ([[1; 1; ...]] when unpartitioned, [[]] for a name no compute
    accesses).  A partition directive with one factor per array dimension
    applies; one with another number of factors does not, and the
    analyzer reports it as an error (POM207), as it does a directive
    naming an array no compute accesses.  The one answer: pricing, the
    lowering, the linter, the timeline and the QoR oracle's bounds all
    read it. *)
val partition_of : t -> string -> int list

(** Generate the polyhedral AST for all statements (Fig. 9 (c) step 3). *)
val to_ast : t -> Pom_poly.Ast.t list

val pp : Format.formatter -> t -> unit
