(** The PolyBench kernels of the paper's evaluation (Sections VII-B and
    VII-F), written in the POM DSL.  Initialization loops are omitted, as
    in the paper's own listings (Fig. 4).

    Linear-algebra kernels take the problem size [n] (the paper evaluates
    32..8192); stencils take the spatial size and optionally the number of
    time steps. *)

open Pom_dsl

(** [D(i,j) += A(i,k) * B(k,j)] — a tight reduction on the innermost
    loop. *)
val gemm : int -> Func.t

(** GEMM with a custom element type (the Table I data-type customization
    feature; the QoR model prices each type differently). *)
val gemm_typed : Dtype.t -> int -> Func.t

(** [y = A^T (A x)] — two dependent matrix-vector products. *)
val atax : int -> Func.t

(** [x1 += A y1; x2 += A^T y2] — two independent fused products. *)
val mvt : int -> Func.t

(** [C = C + A A^T] over the full square (rank-k update). *)
val syrk : int -> Func.t

(** In-place triangular matrix multiply (non-rectangular domain). *)
val trmm : int -> Func.t

(** [sum(r,q,p) += A(r,q,s) * C4(s,p)] — the PolyBench 3-D kernel. *)
val doitgen : ?np:int -> int -> Func.t

(** Two statements fused in one (i,j) nest with conflicting dependence
    requirements — the paper's motivating example (Fig. 2). *)
val bicg : int -> Func.t

(** Table IV's hand-optimized BICG design: bicg's two computes left in
    separate nests (the expert distributes the fused nest), the q
    statement interchanged so its reduction moves outward, each loop
    strip-mined, pipelined and unrolled separately, with matching
    partitions.  Good, but it neither re-fuses the two loops nor balances
    the bank budget, so it lands behind the DSE design while spending
    more operators.  Compile it with [`Pom_manual]; it is not in
    {!by_name}. *)
val bicg_expert : int -> Func.t

(** [tmp = A*x; y = B*x; y = alpha*tmp + beta*y] — two fused
    matrix-vector products and an epilogue. *)
val gesummv : int -> Func.t

(** Two chained matrix multiplies. *)
val mm2 : int -> Func.t

(** Three matrix multiplies in two parallel paths joined at the end. *)
val mm3 : int -> Func.t

(** Ping-pong three-point stencil: two computes alternating inside the
    shared time loop. *)
val jacobi1d : ?tsteps:int -> int -> Func.t

(** Ping-pong five-point 2-D stencil. *)
val jacobi2d : ?tsteps:int -> int -> Func.t

(** Ping-pong heat-equation stencil. *)
val heat1d : ?tsteps:int -> int -> Func.t

(** In-place Gauss–Seidel nine-point 2-D stencil — the tight-dependence
    workload that defeats interchange and requires skewing. *)
val seidel : ?tsteps:int -> int -> Func.t

(** All kernels by name (for the CLI): name -> constructor from size. *)
val by_name : (string * (int -> Func.t)) list
