(** FPGA-oriented loop transformations implemented as manipulations on
    integer sets and maps (Section V-B): iteration domains are re-indexed
    with affine substitutions, schedules are permuted/extended, and array
    index maps are rewritten to match — never touching a syntactic loop
    structure. *)

exception Transform_error of string

(** Swap two loop levels (by current dimension name). *)
val interchange : Stmt_poly.t -> string -> string -> Stmt_poly.t

(** [split s dim factor ~outer ~inner] strip-mines [dim]:
    [dim = factor*outer + inner], [0 <= inner < factor].  The new levels
    take [dim]'s place in the schedule, separated by a zero constant. *)
val split :
  Stmt_poly.t -> string -> int -> outer:string -> inner:string -> Stmt_poly.t

(** [tile s d1 d2 f1 f2 ~o1 ~o2 ~i1 ~i2]: strip-mine both levels and
    interchange so the schedule reads [... o1 o2 i1 i2 ...].  [d1] and [d2]
    must be adjacent loop levels with [d1] outside [d2]. *)
val tile :
  Stmt_poly.t ->
  string -> string -> int -> int ->
  o1:string -> o2:string -> i1:string -> i2:string ->
  Stmt_poly.t

(** [skew s d1 d2 f1 f2 ~n1 ~n2]: re-index [(d1, d2)] to
    [(n1, n2) = (d1, f1*d1 + f2*d2)].  Requires [|f2| = 1] so the transform
    stays unimodular. *)
val skew :
  Stmt_poly.t -> string -> string -> int -> int -> n1:string -> n2:string ->
  Stmt_poly.t

(** [sequence_after stmt ~anchor ~level] rewrites [stmt]'s scalar schedule
    so that it shares loops 1..[level] with [anchor] and executes after it
    at scalar position [level].  Deeper scalar positions are reset to 0. *)
val sequence_after :
  Stmt_poly.t -> anchor:Stmt_poly.t -> level:int -> Stmt_poly.t

(** [reverse s dim ~new_dim] flips the iteration direction of a loop level
    ([new_dim = lb + ub - dim], so the range is preserved).  An example of
    the "customized transformations" Section V-B says the set/map
    representation makes easy to add; {!Legality} decides where it is
    safe. *)
val reverse : Stmt_poly.t -> string -> new_dim:string -> Stmt_poly.t

(** Mark a pipeline attribute on a loop level. *)
val pipeline : Stmt_poly.t -> string -> int -> Stmt_poly.t

(** Mark an unroll attribute on a loop level. *)
val unroll : Stmt_poly.t -> string -> int -> Stmt_poly.t

(** Apply a DSL schedule directive to the matching statement of a list
    (hardware directives update attributes; [Auto_dse] and [Partition] are
    ignored here — they are consumed by the DSE engine and the emitter). *)
val apply_directive : Stmt_poly.t list -> Pom_dsl.Schedule.t -> Stmt_poly.t list

(** Validity check used by property tests: the set of executed original
    iteration vectors (index map applied to domain points) is invariant
    under all transformations. *)
val original_points : Stmt_poly.t -> int list list
