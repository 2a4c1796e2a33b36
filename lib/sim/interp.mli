(** Functional execution of POM programs, used to prove that schedules are
    semantics-preserving: run the original DSL specification and the
    transformed affine IR on identically-initialized memory and compare.

    Pipelining/unroll/partition attributes do not change functional
    semantics and are ignored here. *)

(** Execute a DSL function directly: computes in program order, each as a
    nested loop over its iterators in declared order. *)
val run_reference : Pom_dsl.Func.t -> Memory.t -> unit

(** Execute a lowered affine-dialect function. *)
val run_affine : Pom_affine.Ir.func -> Memory.t -> unit

(** Execute the *specified* semantics of a function: the reference
    program {!Pom_polyir.Prog.reference}, i.e. the computes plus the
    algorithm description's fusion structure ({!Pom_dsl.Func.structure}:
    [after]/[fuse] at level >= 1, which for ping-pong stencils interleave
    computes inside a shared time loop), with every other directive
    ignored.  The legality check compares against the same program, so
    the two never disagree on what a schedule must preserve. *)
val run_structural : Pom_dsl.Func.t -> Memory.t -> unit

(** Convenience: lower [func]'s computes through the full polyhedral
    pipeline with the given directives already applied (a [Prog.t]),
    execute both on fresh identical memories, and return the max
    elementwise difference.  The reference is {!run_structural}. *)
val divergence : Pom_dsl.Func.t -> Pom_polyir.Prog.t -> float
