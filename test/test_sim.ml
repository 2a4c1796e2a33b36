open Pom_dsl
open Pom_polyir
open Pom_sim
open Expr

let f32 = Dtype.p_float32

let test_memory_basics () =
  let a = Placeholder.make "A" [ 2; 3 ] f32 in
  let m = Memory.create_filled 0.0 [ a ] in
  Memory.set m "A" [ 1; 2 ] 5.0;
  Alcotest.(check (float 0.0)) "set/get" 5.0 (Memory.get m "A" [ 1; 2 ]);
  Alcotest.(check (float 0.0)) "other cell" 0.0 (Memory.get m "A" [ 0; 0 ]);
  Alcotest.check_raises "bounds"
    (Invalid_argument "Memory: index 3 out of bounds [0, 3)") (fun () ->
      ignore (Memory.get m "A" [ 0; 3 ]))

let test_memory_copy_diff () =
  let a = Placeholder.make "A" [ 4 ] f32 in
  let m = Memory.create [ a ] in
  let m' = Memory.copy m in
  Alcotest.(check (float 0.0)) "copies equal" 0.0 (Memory.max_diff m m');
  Memory.set m' "A" [ 0 ] (Memory.get m "A" [ 0 ] +. 2.5);
  Alcotest.(check (float 1e-9)) "diff detected" 2.5 (Memory.max_diff m m')

(* A program that overflows does so in the reference run too: equal
   infinities and NaN on both sides agree, NaN against a number does not. *)
let test_memory_diff_non_finite () =
  let a = Placeholder.make "A" [ 1 ] f32 in
  let diff v w =
    Memory.max_diff (Memory.create_filled v [ a ]) (Memory.create_filled w [ a ])
  in
  List.iter
    (fun (name, v, w, expected) ->
      Alcotest.(check (float 0.0)) name expected (diff v w))
    [
      ("(inf, inf)", Float.infinity, Float.infinity, 0.0);
      ("(nan, nan)", Float.nan, Float.nan, 0.0);
      ("(inf, 1.0)", Float.infinity, 1.0, Float.infinity);
      ("(nan, 1.0)", Float.nan, 1.0, Float.infinity);
    ]

let test_memory_deterministic () =
  let a = Placeholder.make "A" [ 8 ] f32 in
  let m1 = Memory.create [ a ] and m2 = Memory.create [ a ] in
  Alcotest.(check (float 0.0)) "deterministic init" 0.0 (Memory.max_diff m1 m2)

let gemm_func n =
  let f = Func.create "gemm" in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n and k = Var.make "k" 0 n in
  let d = Placeholder.make "D" [ n; n ] f32 in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let b = Placeholder.make "B" [ n; n ] f32 in
  ignore
    (Func.compute f "s" ~iters:[ i; j; k ]
       ~body:
         (access d [ ix i; ix j ]
         +: (access a [ ix i; ix k ] *: access b [ ix k; ix j ]))
       ~dest:(d, [ ix i; ix j ]) ());
  f

let test_reference_gemm () =
  (* all-ones inputs: D accumulates exactly n per cell on top of 1 *)
  let n = 4 in
  let f = gemm_func n in
  let m = Memory.create_filled 1.0 (Func.placeholders f) in
  Interp.run_reference f m;
  Alcotest.(check (float 1e-6)) "D[0][0] = 1 + n" 5.0 (Memory.get m "D" [ 0; 0 ])

let test_divergence_zero_unscheduled () =
  let f = gemm_func 4 in
  Alcotest.(check (float 0.0)) "identity schedule" 0.0
    (Interp.divergence f (Prog.of_func f))

let test_divergence_zero_transformed () =
  let f = gemm_func 4 in
  Func.schedule f (Schedule.interchange "s" "i" "k");
  Func.schedule f (Schedule.tile "s" "j" "i" 2 2 "j0" "i0" "j1" "i1");
  Alcotest.(check (float 0.0)) "tiled+interchanged schedule" 0.0
    (Interp.divergence f (Prog.of_func f))

let test_structural_semantics () =
  (* ping-pong: run_structural alternates computes inside the time loop,
     while run_reference runs them sequentially -- they must differ when
     tsteps > 1 *)
  let f = Pom_workloads.Polybench.jacobi1d ~tsteps:3 10 in
  let ps = Func.placeholders f in
  let m_seq = Memory.create ps in
  let m_str = Memory.copy m_seq in
  Interp.run_reference f m_seq;
  Interp.run_structural f m_str;
  Alcotest.(check bool) "interleaving matters" true
    (Memory.max_diff m_seq m_str > 1e-9)

let test_stencil_divergence () =
  let f = Pom_workloads.Polybench.seidel ~tsteps:3 10 in
  Func.schedule f (Schedule.skew "s" "i" "j" 2 1 "is" "js");
  Alcotest.(check (float 0.0)) "skewed seidel" 0.0
    (Interp.divergence f (Prog.of_func f))

(* random schedule pipelines: divergence stays zero on an elementwise map
   and on gemm *)
let sched_gen =
  QCheck.Gen.(
    list_size (int_range 0 3)
      (oneofl [ `Swap01; `Swap12; `SplitLast 2; `SplitLast 3 ]))

let apply_random f steps =
  let counter = ref 0 in
  List.iter
    (fun step ->
      incr counter;
      let prog = Prog.of_func f in
      let order = Stmt_poly.loop_order (Prog.stmt prog "s") in
      let d k = List.nth order k in
      try
        match step with
        | `Swap01 when List.length order >= 2 ->
            Func.schedule f (Schedule.interchange "s" (d 0) (d 1))
        | `Swap12 when List.length order >= 3 ->
            Func.schedule f (Schedule.interchange "s" (d 1) (d 2))
        | `SplitLast factor ->
            let last = d (List.length order - 1) in
            Func.schedule f
              (Schedule.split "s" last factor
                 (Printf.sprintf "%s_o%d" last !counter)
                 (Printf.sprintf "%s_i%d" last !counter))
        | _ -> ()
      with _ -> ())
    steps

let prop_random_schedules_preserve_semantics =
  QCheck.Test.make ~name:"random schedules preserve gemm semantics" ~count:40
    (QCheck.make sched_gen) (fun steps ->
      let f = gemm_func 4 in
      apply_random f steps;
      Interp.divergence f (Prog.of_func f) = 0.0)

let () =
  Alcotest.run "sim"
    [
      ( "memory",
        [
          Alcotest.test_case "basics" `Quick test_memory_basics;
          Alcotest.test_case "copy and diff" `Quick test_memory_copy_diff;
          Alcotest.test_case "deterministic init" `Quick test_memory_deterministic;
          Alcotest.test_case "non-finite differences" `Quick
            test_memory_diff_non_finite;
        ] );
      ( "interp",
        [
          Alcotest.test_case "reference gemm" `Quick test_reference_gemm;
          Alcotest.test_case "unscheduled divergence" `Quick
            test_divergence_zero_unscheduled;
          Alcotest.test_case "transformed divergence" `Quick
            test_divergence_zero_transformed;
          Alcotest.test_case "structural vs sequential semantics" `Quick
            test_structural_semantics;
          Alcotest.test_case "skewed stencil divergence" `Quick
            test_stencil_divergence;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_schedules_preserve_semantics ]
      );
    ]
