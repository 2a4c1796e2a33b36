(* The comparator flows, compiled end to end through [Pom.compile]: each
   design below also passed legality, lint, lowering, verify-ir and
   emission. *)

open Pom_baselines
open Pom_workloads

let speedup func (r : Pom_hls.Report.t) =
  Pom_hls.Report.speedup ~baseline:(Pom_hls.Report.baseline_latency func) r

let pluto = Pom.compile ~framework:`Pluto

let polsca = Pom.compile ~framework:`Polsca

let scalehls = Pom.compile ~framework:`Scalehls

let test_pluto_no_pragmas () =
  let c = pluto (Polybench.gemm 256) in
  Alcotest.(check (list (pair int int))) "no pipelines" []
    c.Pom.report.Pom_hls.Report.iis;
  (* CPU-oriented tiling yields no FPGA speedup *)
  Alcotest.(check bool) "about 1x" true (Pom.speedup c < 2.0)

let test_pluto_tiles () =
  let c = pluto (Polybench.gemm 256) in
  let has_split =
    List.exists
      (fun d -> match d with Pom_dsl.Schedule.Split _ -> true | _ -> false)
      c.Pom.directives
  in
  Alcotest.(check bool) "tiling applied" true has_split

let test_polsca_dependence_limited () =
  let c = polsca (Polybench.gemm 4096) in
  (* pipelining without restructuring: II set by the reduction chain *)
  let ii = List.assoc 0 c.Pom.report.Pom_hls.Report.iis in
  Alcotest.(check int) "II = recurrence" 7 ii;
  let s = Pom.speedup c in
  Alcotest.(check bool) "about 2.3x" true (s > 1.5 && s < 4.0)

let test_polsca_no_partitions () =
  let c = polsca (Polybench.gemm 4096) in
  let has_partition =
    List.exists
      (fun d -> match d with Pom_dsl.Schedule.Partition _ -> true | _ -> false)
      c.Pom.directives
  in
  Alcotest.(check bool) "no partitioning" false has_partition

let test_scalehls_beats_polsca_on_gemm () =
  let s = scalehls (Polybench.gemm 1024) in
  let p = polsca (Polybench.gemm 1024) in
  Alcotest.(check bool) "scalehls ahead of polsca" true
    (Pom.speedup s > Pom.speedup p)

let test_scalehls_bicg_tight () =
  (* applying one interchange to the fused nest leaves s_s tight: II blows
     up (the Fig. 2(d) schedule) *)
  let s = scalehls (Polybench.bicg 1024) in
  let ii = List.assoc 0 s.Pom.report.Pom_hls.Report.iis in
  Alcotest.(check bool) "large II" true (ii > 10)

let test_scalehls_greedy_order () =
  let s = scalehls (Polybench.mm3 2048) in
  let par name =
    match List.assoc_opt name s.Pom.tile_vectors with
    | Some v -> List.fold_left ( * ) 1 v
    | None -> 0
  in
  (* earlier loops get at least as much parallelism as later ones *)
  Alcotest.(check bool) "greedy allocation decays" true
    (par "mm_e" >= par "mm_g")

let test_scalehls_no_skew () =
  let s = scalehls (Polybench.seidel ~tsteps:8 512) in
  let has_skew =
    List.exists
      (fun d -> match d with Pom_dsl.Schedule.Skew _ -> true | _ -> false)
      s.Pom.directives
  in
  Alcotest.(check bool) "no skewing" false has_skew

let test_scalehls_huge_size_pipeline_only () =
  let s = scalehls (Polybench.gemm 8192) in
  let pars =
    List.map (fun (_, v) -> List.fold_left ( * ) 1 v) s.Pom.tile_vectors
  in
  Alcotest.(check (list int)) "par 1 only at 8192" [ 1 ] pars

let test_scalehls_correctness () =
  let func = Polybench.bicg 8 in
  let s = scalehls func in
  Alcotest.(check (float 0.0)) "schedule preserves semantics" 0.0
    (Pom_sim.Interp.divergence func s.Pom.prog)

let test_manual_between_unopt_and_dse () =
  let n = 1024 in
  let func = Polybench.bicg n in
  let m = Manual.bicg n in
  let d = Pom_dse.Engine.run (Polybench.bicg n) in
  let manual_s = speedup func m.Manual.report in
  let dse_s =
    speedup func d.Pom_dse.Engine.result.Pom_dse.Stage2.report
  in
  Alcotest.(check bool) "manual beats unoptimized" true (manual_s > 20.0);
  Alcotest.(check bool) "DSE beats manual" true (dse_s > manual_s);
  Alcotest.(check (float 0.0)) "manual schedule is correct" 0.0
    (Pom_sim.Interp.divergence (Polybench.bicg 8) (Manual.bicg 8).Manual.prog)

let () =
  Alcotest.run "baselines"
    [
      ( "pluto",
        [
          Alcotest.test_case "no pragmas, ~1x" `Quick test_pluto_no_pragmas;
          Alcotest.test_case "tiles for locality" `Quick test_pluto_tiles;
        ] );
      ( "polsca",
        [
          Alcotest.test_case "dependence-limited II" `Quick
            test_polsca_dependence_limited;
          Alcotest.test_case "no partitioning" `Quick test_polsca_no_partitions;
        ] );
      ( "scalehls",
        [
          Alcotest.test_case "beats polsca on gemm" `Quick
            test_scalehls_beats_polsca_on_gemm;
          Alcotest.test_case "bicg stays tight" `Quick test_scalehls_bicg_tight;
          Alcotest.test_case "greedy program-order allocation" `Quick
            test_scalehls_greedy_order;
          Alcotest.test_case "no skewing" `Quick test_scalehls_no_skew;
          Alcotest.test_case "pipeline-only at 8192" `Quick
            test_scalehls_huge_size_pipeline_only;
          Alcotest.test_case "correctness" `Quick test_scalehls_correctness;
        ] );
      ( "manual",
        [
          Alcotest.test_case "between unoptimized and DSE" `Quick
            test_manual_between_unopt_and_dse;
        ] );
    ]
