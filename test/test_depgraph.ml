open Pom_dsl
open Pom_depgraph
open Expr

let f32 = Dtype.p_float32

(* the four computes of Fig. 8: S1: A=A*b; S2: B=A+B; S3: C=A+C; S4: D=B*C *)
let fig8 () =
  let n = 8 in
  let mk s = Var.make s 0 n in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let b = Placeholder.make "B" [ n; n ] f32 in
  let c = Placeholder.make "C" [ n; n ] f32 in
  let d = Placeholder.make "D" [ n; n ] f32 in
  let f = Func.create "fig8" in
  let i = mk "i" and j = mk "j" and k = mk "k" in
  ignore
    (Func.compute f "S1" ~iters:[ i; j; k ]
       ~body:(access a [ ix i; ix j ] *: fconst 2.0)
       ~dest:(a, [ ix i; ix j ]) ());
  ignore
    (Func.compute f "S2" ~iters:[ i; j; k ]
       ~body:(access a [ ix i; ix j ] +: access b [ ix i; ix j ])
       ~dest:(b, [ ix i; ix j ]) ());
  ignore
    (Func.compute f "S3" ~iters:[ i; j; k ]
       ~body:(access a [ ix i; ix j ] +: access c [ ix i; ix j ])
       ~dest:(c, [ ix i; ix j ]) ());
  ignore
    (Func.compute f "S4" ~iters:[ i; j; k ]
       ~body:(access b [ ix i; ix k ] *: access c [ ix k; ix j ])
       ~dest:(d, [ ix i; ix j ]) ());
  f

let test_coarse_graph () =
  let g = Graph.build (fig8 ()) in
  Alcotest.(check (list string)) "program order" [ "S1"; "S2"; "S3"; "S4" ]
    (Graph.order g);
  Alcotest.(check (list string)) "S1 successors" [ "S2"; "S3" ]
    (Graph.successors g "S1");
  Alcotest.(check (list string)) "S4 predecessors" [ "S2"; "S3" ]
    (Graph.predecessors g "S4")

let test_data_paths () =
  let g = Graph.build (fig8 ()) in
  Alcotest.(check (list (list string))) "the two Fig. 8 paths"
    [ [ "S1"; "S2"; "S4" ]; [ "S1"; "S3"; "S4" ] ]
    (Graph.data_paths g)

let test_edge_kinds () =
  let g = Graph.build (fig8 ()) in
  let kinds =
    List.filter_map
      (fun (e : Graph.edge) ->
        if e.Graph.src = "S1" && e.Graph.dst = "S2" then Some e.Graph.kind
        else None)
      (Graph.edges g)
  in
  (* S1 writes A read by S2 (RAW); no WAR/WAW between them on A or B *)
  Alcotest.(check bool) "raw present" true (List.mem Graph.Raw kinds)

let gemm_node () =
  let f = fig8 () in
  (Graph.node (Graph.build f) "S4").Graph.fine

(* Fig. 8's fine-grained result: S4 has reduction dimension k and the GEMM
   accumulation D(i,j) gives no self-dependence box because D is not read
   -- use a true accumulating compute instead *)
let accumulating () =
  let n = 8 in
  let mk s = Var.make s 0 n in
  let d = Placeholder.make "D" [ n; n ] f32 in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let f = Func.create "acc" in
  let i = mk "i" and j = mk "j" and k = mk "k" in
  ignore
    (Func.compute f "s" ~iters:[ i; j; k ]
       ~body:(access d [ ix i; ix j ] +: access a [ ix i; ix k ])
       ~dest:(d, [ ix i; ix j ]) ());
  Finegrain.analyze (Func.find_compute f "s")

let test_finegrain_reduction () =
  let fine = gemm_node () in
  Alcotest.(check (list string)) "reduction dim" [ "k" ]
    fine.Finegrain.reduction_dims;
  Alcotest.(check int) "no self dep (D not read)" 0
    (List.length fine.Finegrain.self_deps)

let test_finegrain_accumulation () =
  let fine = accumulating () in
  Alcotest.(check bool) "has self deps" true (fine.Finegrain.self_deps <> []);
  (* (i, j, k) order: dependence carried at k = innermost -> not free *)
  Alcotest.(check bool) "innermost carried" false
    (Finegrain.innermost_free fine ~order:[ "i"; "j"; "k" ]);
  (* (k, i, j): carried at outer k -> innermost free *)
  Alcotest.(check bool) "k-outer frees innermost" true
    (Finegrain.innermost_free fine ~order:[ "k"; "i"; "j" ]);
  Alcotest.(check (option int)) "distance at k" (Some 1)
    (Finegrain.carried_distance_at fine ~order:[ "k"; "i"; "j" ] "k");
  Alcotest.(check bool) "legal order" true
    (Finegrain.legal_order fine ~order:[ "k"; "i"; "j" ])

let test_hints_gemm () =
  match Hints.suggest (accumulating ()) with
  | Hints.Reorder order ->
      (* any innermost-free legal order is acceptable; k must not be last *)
      Alcotest.(check bool) "k not innermost" true
        (List.nth order 2 <> "k")
  | other ->
      Alcotest.failf "expected reorder, got %a" Hints.pp other

let test_hints_keep () =
  (* s(j) accumulation over (i, j): carried at i = outer level 1 when the
     order is (i, j)?  No: dest s(j), reduction dim i, dep (1, 0) -> carried
     at level 1, innermost j free -> Keep *)
  let n = 8 in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n in
  let s = Placeholder.make "s" [ n ] f32 in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let f = Func.create "g" in
  ignore
    (Func.compute f "c" ~iters:[ i; j ]
       ~body:(access s [ ix j ] +: access a [ ix i; ix j ])
       ~dest:(s, [ ix j ]) ());
  match Hints.suggest (Finegrain.analyze (Func.find_compute f "c")) with
  | Hints.Keep -> ()
  | other -> Alcotest.failf "expected keep, got %a" Hints.pp other

let test_hints_seidel_skew () =
  let func = Pom_workloads.Polybench.seidel ~tsteps:4 10 in
  let node = Graph.node (Graph.build func) "s" in
  match Hints.suggest node.Graph.fine with
  | Hints.Skew_hint { factor; _ } ->
      Alcotest.(check bool) "positive factor" true (factor >= 1)
  | other -> Alcotest.failf "expected skew hint, got %a" Hints.pp other

let () =
  Alcotest.run "depgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "coarse-grained graph" `Quick test_coarse_graph;
          Alcotest.test_case "data paths (Fig. 8)" `Quick test_data_paths;
          Alcotest.test_case "edge kinds" `Quick test_edge_kinds;
        ] );
      ( "finegrain",
        [
          Alcotest.test_case "reduction dimension" `Quick test_finegrain_reduction;
          Alcotest.test_case "accumulation dependence" `Quick
            test_finegrain_accumulation;
        ] );
      ( "hints",
        [
          Alcotest.test_case "gemm wants reorder" `Quick test_hints_gemm;
          Alcotest.test_case "outer-carried keeps order" `Quick test_hints_keep;
          Alcotest.test_case "seidel wants skew" `Quick test_hints_seidel_skew;
        ] );
    ]
