(** The [compute] operation (Fig. 4): an iteration domain (ordered loop
    iterators), a right-hand-side expression, and a destination access.
    [compute s("s", [k; i; j], A(i,j) + B(i,k)*C(k,j), A(i,j))] describes a
    matrix-multiply statement without writing the loop nest. *)

type t = {
  name : string;
  iters : Var.t list;  (** loop order: outermost first *)
  where : Expr.cond list;
      (** extra affine conditions restricting the iteration domain
          (triangular loops etc.); empty = full box *)
  body : Expr.t;
  dest : Placeholder.t * Expr.index list;
}

val make :
  string ->
  iters:Var.t list ->
  ?where:Expr.cond list ->
  body:Expr.t ->
  dest:Placeholder.t * Expr.index list ->
  unit ->
  t

(** Iterator names, outermost first. *)
val iter_names : t -> string list

(** Iteration domain as a basic set over the iterator names. *)
val domain : t -> Pom_poly.Basic_set.t

(** The store access. *)
val write_access : t -> Pom_poly.Dep.access

(** All load accesses in the body. *)
val read_accesses : t -> Pom_poly.Dep.access list

(** Names of arrays read / written. *)
val arrays_read : t -> string list

val array_written : t -> string

(** All placeholders touched. *)
val placeholders : t -> Placeholder.t list

(** Iterators that do not appear in the destination access pattern — the
    reduction dimensions of Fig. 8 (e.g. [k] for GEMM). *)
val reduction_dims : t -> string list

(** A compute is a reduction when its destination is also loaded in the
    body (accumulation) or it has reduction dimensions. *)
val is_reduction : t -> bool

(** Number of iteration-domain points.  Exact for rectangular domains and
    for restricted domains small enough to count; estimated (box divided by
    2 per condition) for large non-rectangular domains — the QoR model only
    needs the magnitude, and the simulator is always exact.  Raises
    [Failure] when the box's point count overflows ({!Count.mul}). *)
val trip_count : t -> int

val pp : Format.formatter -> t -> unit
