open Pom_dsl
open Expr

let f32 = Dtype.p_float32

let gemm_typed dt n =
  let f = Func.create "gemm" in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n and k = Var.make "k" 0 n in
  let d = Placeholder.make "D" [ n; n ] dt in
  let a = Placeholder.make "A" [ n; n ] dt in
  let b = Placeholder.make "B" [ n; n ] dt in
  let _ =
    Func.compute f "s" ~iters:[ i; j; k ]
      ~body:(access d [ ix i; ix j ] +: (access a [ ix i; ix k ] *: access b [ ix k; ix j ]))
      ~dest:(d, [ ix i; ix j ]) ()
  in
  f

let gemm n = gemm_typed f32 n

let atax n =
  let f = Func.create "atax" in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let x = Placeholder.make "x" [ n ] f32 in
  let y = Placeholder.make "y" [ n ] f32 in
  let tmp = Placeholder.make "tmp" [ n ] f32 in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n in
  let _ =
    Func.compute f "s_tmp" ~iters:[ i; j ]
      ~body:(access tmp [ ix i ] +: (access a [ ix i; ix j ] *: access x [ ix j ]))
      ~dest:(tmp, [ ix i ]) ()
  in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n in
  let _ =
    Func.compute f "s_y" ~iters:[ i; j ]
      ~body:(access y [ ix j ] +: (access a [ ix i; ix j ] *: access tmp [ ix i ]))
      ~dest:(y, [ ix j ]) ()
  in
  f

let mvt n =
  let f = Func.create "mvt" in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let x1 = Placeholder.make "x1" [ n ] f32 in
  let x2 = Placeholder.make "x2" [ n ] f32 in
  let y1 = Placeholder.make "y1" [ n ] f32 in
  let y2 = Placeholder.make "y2" [ n ] f32 in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n in
  let _ =
    Func.compute f "s_x1" ~iters:[ i; j ]
      ~body:(access x1 [ ix i ] +: (access a [ ix i; ix j ] *: access y1 [ ix j ]))
      ~dest:(x1, [ ix i ]) ()
  in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n in
  let _ =
    Func.compute f "s_x2" ~iters:[ i; j ]
      ~body:(access x2 [ ix i ] +: (access a [ ix j; ix i ] *: access y2 [ ix j ]))
      ~dest:(x2, [ ix i ]) ()
  in
  Func.schedule f (Schedule.fuse "s_x1" "s_x2" ~level:2);
  f

let syrk n =
  let f = Func.create "syrk" in
  let c = Placeholder.make "C" [ n; n ] f32 in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n and k = Var.make "k" 0 n in
  let _ =
    Func.compute f "s" ~iters:[ i; j; k ]
      ~body:(access c [ ix i; ix j ] +: (access a [ ix i; ix k ] *: access a [ ix j; ix k ]))
      ~dest:(c, [ ix i; ix j ]) ()
  in
  f

let trmm n =
  (* triangular update: B(i,j) += A(k,i) * B(k,j) for k > i *)
  let f = Func.create "trmm" in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let b = Placeholder.make "B" [ n; n ] f32 in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n and k = Var.make "k" 0 n in
  let _ =
    Func.compute f "s" ~iters:[ i; j; k ]
      ~where:[ Cgt (ix k, ix i) ]
      ~body:(access b [ ix i; ix j ] +: (access a [ ix k; ix i ] *: access b [ ix k; ix j ]))
      ~dest:(b, [ ix i; ix j ]) ()
  in
  f

let doitgen ?(np = 32) n =
  let f = Func.create "doitgen" in
  let a = Placeholder.make "A" [ n; n; np ] f32 in
  let c4 = Placeholder.make "C4" [ np; np ] f32 in
  let sum = Placeholder.make "sum" [ n; n; np ] f32 in
  let r = Var.make "r" 0 n and q = Var.make "q" 0 n in
  let p = Var.make "p" 0 np and s = Var.make "s" 0 np in
  let _ =
    Func.compute f "s_sum" ~iters:[ r; q; p; s ]
      ~body:
        (access sum [ ix r; ix q; ix p ]
        +: (access a [ ix r; ix q; ix s ] *: access c4 [ ix s; ix p ]))
      ~dest:(sum, [ ix r; ix q; ix p ]) ()
  in
  let r = Var.make "r" 0 n and q = Var.make "q" 0 n and p = Var.make "p" 0 np in
  let _ =
    Func.compute f "s_copy" ~iters:[ r; q; p ]
      ~body:(access sum [ ix r; ix q; ix p ])
      ~dest:(a, [ ix r; ix q; ix p ]) ()
  in
  f

(* bicg's two computes in separate nests, as the specification writes
   them before it fuses them *)
let bicg_distributed n =
  let f = Func.create "bicg" in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let s = Placeholder.make "s" [ n ] f32 in
  let q = Placeholder.make "q" [ n ] f32 in
  let p = Placeholder.make "p" [ n ] f32 in
  let r = Placeholder.make "r" [ n ] f32 in
  let _ =
    Func.compute f "s_s" ~iters:[ i; j ]
      ~body:(access s [ ix j ] +: (access r [ ix i ] *: access a [ ix i; ix j ]))
      ~dest:(s, [ ix j ]) ()
  in
  let _ =
    Func.compute f "s_q" ~iters:[ i; j ]
      ~body:(access q [ ix i ] +: (access a [ ix i; ix j ] *: access p [ ix j ]))
      ~dest:(q, [ ix i ]) ()
  in
  f

let bicg n =
  let f = bicg_distributed n in
  Func.schedule f (Schedule.fuse "s_s" "s_q" ~level:2);
  f

let bicg_expert n =
  let f = bicg_distributed n in
  let u = 24 in
  List.iter (Func.schedule f)
    [
      (* interchange the q statement so its reduction moves outward *)
      Schedule.interchange "s_q" "i" "j";
      (* each loop: strip-mine the parallel dimension, pipeline, unroll *)
      Schedule.split "s_s" "j" u "j_o" "j_i";
      Schedule.pipeline "s_s" "j_o" 1;
      Schedule.unroll "s_s" "j_i" u;
      Schedule.split "s_q" "i" u "i_o" "i_i";
      Schedule.pipeline "s_q" "i_o" 1;
      Schedule.unroll "s_q" "i_i" u;
      (* the expert under-partitions the shared matrix (banks are costly),
         accepting II = 2 on each loop *)
      Schedule.partition "A" [ 8; 8 ] Schedule.Cyclic;
      Schedule.partition "s" [ 8 ] Schedule.Cyclic;
      Schedule.partition "q" [ 8 ] Schedule.Cyclic;
    ];
  f

let gesummv n =
  let f = Func.create "gesummv" in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n in
  let i2 = Var.make "i" 0 n in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let b = Placeholder.make "B" [ n; n ] f32 in
  let x = Placeholder.make "x" [ n ] f32 in
  let tmp = Placeholder.make "tmp" [ n ] f32 in
  let y = Placeholder.make "y" [ n ] f32 in
  let _ =
    Func.compute f "s_tmp" ~iters:[ i; j ]
      ~body:(access tmp [ ix i ] +: (access a [ ix i; ix j ] *: access x [ ix j ]))
      ~dest:(tmp, [ ix i ]) ()
  in
  let _ =
    Func.compute f "s_y" ~iters:[ i; j ]
      ~body:(access y [ ix i ] +: (access b [ ix i; ix j ] *: access x [ ix j ]))
      ~dest:(y, [ ix i ]) ()
  in
  let _ =
    Func.compute f "s_sum" ~iters:[ i2 ]
      ~body:((fconst 1.5 *: access tmp [ ix i2 ]) +: (fconst 1.2 *: access y [ ix i2 ]))
      ~dest:(y, [ ix i2 ]) ()
  in
  Func.schedule f (Schedule.fuse "s_tmp" "s_y" ~level:2);
  f

let matmul f name dst lhs rhs i j k =
  ignore
    (Func.compute f name ~iters:[ i; j; k ]
       ~body:
         (access dst [ ix i; ix j ]
         +: (access lhs [ ix i; ix k ] *: access rhs [ ix k; ix j ]))
       ~dest:(dst, [ ix i; ix j ]) ())

let mm2 n =
  let f = Func.create "mm2" in
  let mk s = Var.make s 0 n in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let b = Placeholder.make "B" [ n; n ] f32 in
  let c = Placeholder.make "C" [ n; n ] f32 in
  let tmp = Placeholder.make "tmp" [ n; n ] f32 in
  let d = Placeholder.make "Dm" [ n; n ] f32 in
  matmul f "mm_tmp" tmp a b (mk "i") (mk "j") (mk "k");
  matmul f "mm_d" d tmp c (mk "i") (mk "j") (mk "k");
  f

let mm3 n =
  let f = Func.create "mm3" in
  let mk s = Var.make s 0 n in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let b = Placeholder.make "B" [ n; n ] f32 in
  let c = Placeholder.make "C" [ n; n ] f32 in
  let d = Placeholder.make "Dm" [ n; n ] f32 in
  let e = Placeholder.make "E" [ n; n ] f32 in
  let ff = Placeholder.make "F" [ n; n ] f32 in
  let g = Placeholder.make "G" [ n; n ] f32 in
  matmul f "mm_e" e a b (mk "i") (mk "j") (mk "k");
  matmul f "mm_f" ff c d (mk "i") (mk "j") (mk "k");
  matmul f "mm_g" g e ff (mk "i") (mk "j") (mk "k");
  f

let stencil_pair fname ~tsteps ~lo ~hi body_of a b =
  let f = Func.create fname in
  let t = Var.make "t" 0 tsteps and i = Var.make "i" lo hi in
  let _ =
    Func.compute f "s0" ~iters:[ t; i ] ~body:(body_of a i) ~dest:(b, [ ix i ]) ()
  in
  let _ =
    Func.compute f "s1" ~iters:[ t; i ] ~body:(body_of b i) ~dest:(a, [ ix i ]) ()
  in
  Func.schedule f (Schedule.after "s1" ~anchor:"s0" ~level:1);
  f

let jacobi1d ?(tsteps = 100) n =
  let a = Placeholder.make "A" [ n ] f32 in
  let b = Placeholder.make "B" [ n ] f32 in
  let body arr (i : Var.t) =
    fconst 0.33333
    *: (access arr [ ix i -! ixc 1 ] +: access arr [ ix i ] +: access arr [ ix i +! ixc 1 ])
  in
  stencil_pair "jacobi1d" ~tsteps ~lo:1 ~hi:(n - 1) body a b

let heat1d ?(tsteps = 100) n =
  let a = Placeholder.make "A" [ n ] f32 in
  let b = Placeholder.make "B" [ n ] f32 in
  let body arr (i : Var.t) =
    access arr [ ix i ]
    +: (fconst 0.125
       *: (access arr [ ix i +! ixc 1 ]
          -: (fconst 2.0 *: access arr [ ix i ])
          +: access arr [ ix i -! ixc 1 ]))
  in
  stencil_pair "heat1d" ~tsteps ~lo:1 ~hi:(n - 1) body a b

let jacobi2d ?(tsteps = 50) n =
  let f = Func.create "jacobi2d" in
  let t = Var.make "t" 0 tsteps in
  let i = Var.make "i" 1 (n - 1) and j = Var.make "j" 1 (n - 1) in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let b = Placeholder.make "B" [ n; n ] f32 in
  let five arr =
    fconst 0.2
    *: (access arr [ ix i; ix j ]
       +: access arr [ ix i; ix j -! ixc 1 ]
       +: access arr [ ix i; ix j +! ixc 1 ]
       +: access arr [ ix i -! ixc 1; ix j ]
       +: access arr [ ix i +! ixc 1; ix j ])
  in
  let _ =
    Func.compute f "s0" ~iters:[ t; i; j ] ~body:(five a) ~dest:(b, [ ix i; ix j ]) ()
  in
  let _ =
    Func.compute f "s1" ~iters:[ t; i; j ] ~body:(five b) ~dest:(a, [ ix i; ix j ]) ()
  in
  Func.schedule f (Schedule.after "s1" ~anchor:"s0" ~level:1);
  f

let seidel ?(tsteps = 20) n =
  let f = Func.create "seidel" in
  let t = Var.make "t" 0 tsteps in
  let i = Var.make "i" 1 (n - 1) and j = Var.make "j" 1 (n - 1) in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let at di dj =
    access a [ ix i +! ixc di; ix j +! ixc dj ]
  in
  let sum =
    at (-1) (-1) +: at (-1) 0 +: at (-1) 1 +: at 0 (-1) +: at 0 0 +: at 0 1
    +: at 1 (-1) +: at 1 0 +: at 1 1
  in
  let _ =
    Func.compute f "s" ~iters:[ t; i; j ]
      ~body:(sum /: fconst 9.0)
      ~dest:(a, [ ix i; ix j ]) ()
  in
  f

let by_name =
  [
    ("gemm", gemm);
    ("bicg", bicg);
    ("gesummv", gesummv);
    ("2mm", mm2);
    ("3mm", mm3);
    ("atax", atax);
    ("mvt", mvt);
    ("syrk", syrk);
    ("trmm", trmm);
    ("doitgen", fun n -> doitgen n);
    ("jacobi-1d", fun n -> jacobi1d n);
    ("jacobi-2d", fun n -> jacobi2d n);
    ("heat-1d", fun n -> heat1d n);
    ("seidel", fun n -> seidel n);
  ]
