(* The instrumented pass manager: ordering, timing/statistics records,
   dump-after and verify hooks, and the compile flows built on it. *)

open Pom_pipeline
open Pom_workloads

let device = Pom_hls.Device.xc7z020

(* -------- pass manager over a toy state -------- *)

let incr_pass = Pass.v ~name:"test-incr" (fun n -> n + 1)

let double_pass = Pass.v ~name:"test-double" (fun n -> n * 2)

let test_ordering () =
  let final, records = Pass.run [ incr_pass; double_pass; incr_pass ] 3 in
  Alcotest.(check int) "passes applied in order" 9 final;
  Alcotest.(check (list string))
    "one record per pass, in execution order"
    [ "test-incr"; "test-double"; "test-incr" ]
    (List.map (fun r -> r.Pass.pass) records);
  List.iter
    (fun r ->
      Alcotest.(check bool) "wall-clock non-negative" true (r.Pass.wall_s >= 0.0);
      Alcotest.(check bool) "cpu non-negative" true (r.Pass.cpu_s >= 0.0))
    records

let test_instruments () =
  let stats_calls = ref 0 in
  let instruments =
    {
      Pass.stats =
        Some
          (fun n ->
            incr stats_calls;
            { Stats.zero with Stats.ops = n });
      dump = Some string_of_int;
      dump_after = [ "test-double" ];
      verify = Some (fun n -> if n >= 0 then "ok" else "negative");
      verify_each = true;
    }
  in
  let _, records = Pass.run ~instruments [ incr_pass; double_pass ] 1 in
  Alcotest.(check int) "stats collected after every pass" 2 !stats_calls;
  let r1 = List.nth records 0 and r2 = List.nth records 1 in
  Alcotest.(check (option string))
    "dump fires only for the named pass" None r1.Pass.dump;
  Alcotest.(check (option string))
    "dump captured after test-double" (Some "4") r2.Pass.dump;
  Alcotest.(check (option string)) "verify fired" (Some "ok") r1.Pass.verdict;
  Alcotest.(check bool) "stats recorded" true (r1.Pass.stats <> None);
  (* dump_after = ["all"] captures every pass *)
  let _, records =
    Pass.run
      ~instruments:{ instruments with Pass.dump_after = [ "all" ] }
      [ incr_pass; double_pass ] 1
  in
  Alcotest.(check bool) "all passes dumped" true
    (List.for_all (fun (r : Pass.record) -> r.Pass.dump <> None) records)

(* -------- the end-to-end compile flows -------- *)

let test_compile_records () =
  let c = Pom.compile ~framework:`Pom_auto (Polybench.gemm 32) in
  let names = List.map (fun r -> r.Pass.pass) c.Pom.passes in
  Alcotest.(check (list string))
    "the full pom-auto pipeline, in order"
    [
      "stage1-transform";
      "stage2-search";
      "legality-check";
      "lint-pragmas";
      "hls-synthesize";
      "affine-lower";
      "affine-simplify";
      "verify-ir";
      "emit-hls-c";
    ]
    names;
  Alcotest.(check bool) "stats attached" true
    (List.for_all (fun (r : Pass.record) -> r.Pass.stats <> None) c.Pom.passes);
  Alcotest.(check bool) "legality verdict traced" true
    (List.exists
       (fun line -> line = "legality: legal")
       c.Pom.trace)

let test_compile_dump_after () =
  let c =
    Pom.compile ~framework:`Baseline
      ~dump_after:[ "schedule-apply" ]
      (Polybench.gemm 32)
  in
  let r =
    List.find (fun r -> r.Pass.pass = "schedule-apply") c.Pom.passes
  in
  (match r.Pass.dump with
  | Some ir ->
      Alcotest.(check bool) "dump shows the polyhedral program" true
        (String.length ir > 0)
  | None -> Alcotest.fail "no dump captured for schedule-apply");
  Alcotest.(check bool) "other passes not dumped" true
    (List.for_all
       (fun (r : Pass.record) -> r.Pass.pass = "schedule-apply" || r.Pass.dump = None)
       c.Pom.passes)

let test_compile_verify_each () =
  let c =
    Pom.compile ~framework:`Pom_manual ~verify_each:true (Polybench.bicg 32)
  in
  Alcotest.(check bool) "every pass carries a verdict" true
    (List.for_all (fun (r : Pass.record) -> r.Pass.verdict <> None) c.Pom.passes);
  Alcotest.(check bool) "schedule verified legal" true
    (List.exists (fun (r : Pass.record) -> r.Pass.verdict = Some "legal") c.Pom.passes)

(* A search sets the state's report to the design it settled on, priced as
   it searched: the synthesis pass keeps that report and prices nothing. *)
let test_synthesize_keeps_priced_report () =
  let func = Polybench.gemm 24 in
  let prog = Pom_polyir.Prog.of_func_unscheduled func in
  (* a report no synthesis of [prog] returns, so only keeping it passes *)
  let priced =
    {
      (Pom_hls.Report.synthesize ~device prog) with
      Pom_hls.Report.latency = 1;
    }
  in
  let st =
    { (State.init ~device func) with State.prog = Some prog; report = Some priced }
  in
  let synths = Pom_hls.Report.synth_count () in
  let st, _ = Pass.run [ Passes.synthesize () ] st in
  Alcotest.(check int) "no synthesis ran" synths (Pom_hls.Report.synth_count ());
  Alcotest.(check bool) "the priced report is kept" true
    (match st.State.report with Some r -> r == priced | None -> false)

let test_compile_warm_equals_cold () =
  (* a second compile in the same process (warm dependence memo) must
     reproduce the first result exactly *)
  let a = Pom.compile ~framework:`Scalehls (Polybench.gemm 32) in
  let b = Pom.compile ~framework:`Scalehls (Polybench.gemm 32) in
  Alcotest.(check int) "same latency" a.Pom.report.Pom_hls.Report.latency
    b.Pom.report.Pom_hls.Report.latency;
  Alcotest.(check string) "same generated HLS C" a.Pom.hls_c b.Pom.hls_c

let () =
  Alcotest.run "pipeline"
    [
      ( "pass-manager",
        [
          Alcotest.test_case "ordering and records" `Quick test_ordering;
          Alcotest.test_case "instrument hooks" `Quick test_instruments;
        ] );
      ( "compile",
        [
          Alcotest.test_case "per-pass records" `Quick test_compile_records;
          Alcotest.test_case "hls-synthesize keeps a priced report" `Quick
            test_synthesize_keeps_priced_report;
          Alcotest.test_case "dump-after" `Quick test_compile_dump_after;
          Alcotest.test_case "verify-each" `Quick test_compile_verify_each;
          Alcotest.test_case "warm compile equals cold" `Quick
            test_compile_warm_equals_cold;
        ] );
    ]
