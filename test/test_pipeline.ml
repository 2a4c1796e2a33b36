(* The instrumented pass manager: ordering, timing/statistics records,
   dump-after and verify hooks, the registry, and the memoized polyhedral
   evaluation (cache hits must be free and identical to the cold path). *)

open Pom_pipeline
open Pom_workloads

let device = Pom_hls.Device.xc7z020

(* -------- pass manager over a toy state -------- *)

let incr_pass = Pass.v ~name:"test-incr" ~descr:"toy: add one" (fun n -> n + 1)

let double_pass =
  Pass.v ~name:"test-double" ~descr:"toy: double" (fun n -> n * 2)

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

let test_registry () =
  ignore (Passes.tail ());
  ignore (Passes.structural ());
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true (Registry.mem name))
    [
      "structural-directives";
      "hls-synthesize";
      "affine-lower";
      "affine-simplify";
      "emit-hls-c";
      "test-incr";
    ];
  Alcotest.(check bool) "unknown pass not registered" false
    (Registry.mem "no-such-pass");
  let names = List.map fst (Registry.all ()) in
  Alcotest.(check bool) "registry listing sorted" true
    (List.sort compare names = names)

(* -------- memoized polyhedral evaluation -------- *)

let test_schedule_memo () =
  let cache = Memo.create () in
  let func = Polybench.gemm 32 in
  let directives = Pom_dsl.Func.directives func in
  let p1 = Memo.schedule cache func directives in
  let p2 = Memo.schedule cache func directives in
  Alcotest.(check bool) "hit returns the cached program" true (p1 == p2);
  let c = Memo.counters cache in
  Alcotest.(check int) "one miss" 1 c.Memo.schedule_misses;
  Alcotest.(check int) "one hit" 1 c.Memo.schedule_hits

let test_report_memo_hit_is_free_and_identical () =
  let cache = Memo.create () in
  let func = Polybench.gemm 32 in
  let directives = [] in
  let prog () = Pom_polyir.Prog.of_func_unscheduled func in
  let cold = Memo.synthesize cache ~device ~directives (prog ()) in
  let synths_after_cold = Pom_hls.Report.synth_count () in
  let hit = Memo.synthesize cache ~device ~directives (prog ()) in
  Alcotest.(check int)
    "cache hit runs no synthesis" synths_after_cold
    (Pom_hls.Report.synth_count ());
  Alcotest.(check bool) "identical report" true (cold == hit);
  (* and the hit result equals an independent cold evaluation *)
  let fresh = Memo.synthesize (Memo.create ()) ~device ~directives (prog ()) in
  Alcotest.(check int) "same latency as a cold path"
    fresh.Pom_hls.Report.latency hit.Pom_hls.Report.latency;
  let c = Memo.counters cache in
  Alcotest.(check int) "one report miss" 1 c.Memo.report_misses;
  Alcotest.(check int) "one report hit" 1 c.Memo.report_hits

let test_memo_distinguishes_sizes_and_devices () =
  let cache = Memo.create () in
  let p32 = Memo.schedule cache (Polybench.gemm 32) [] in
  let p64 = Memo.schedule cache (Polybench.gemm 64) [] in
  Alcotest.(check bool) "same name, different size: distinct" true
    (p32 != p64);
  Alcotest.(check int) "both were misses" 2
    (Memo.counters cache).Memo.schedule_misses;
  let prog = Pom_polyir.Prog.of_func_unscheduled (Polybench.gemm 32) in
  let _ = Memo.synthesize cache ~device ~directives:[] prog in
  let small = Pom_hls.Device.scale 0.5 device in
  let _ = Memo.synthesize cache ~device:small ~directives:[] prog in
  Alcotest.(check int) "different device: distinct report entries" 2
    (Memo.counters cache).Memo.report_misses

let test_memo_capacity_guard () =
  (* the guard drops a table wholesale once an insert would leave it past
     [max_entries]: with a bound of 2 the fourth distinct schedule evicts
     the first three, so re-asking for the first is a miss again *)
  let cache = Memo.create ~max_entries:2 () in
  let sizes = [ 8; 12; 16; 24 ] in
  List.iter (fun n -> ignore (Memo.schedule cache (Polybench.gemm n) [])) sizes;
  Alcotest.(check int) "four distinct points, four misses" 4
    (Memo.counters cache).Memo.schedule_misses;
  ignore (Memo.schedule cache (Polybench.gemm 8) []);
  Alcotest.(check int) "the evicted entry misses again" 5
    (Memo.counters cache).Memo.schedule_misses;
  ignore (Memo.schedule cache (Polybench.gemm 24) []);
  Alcotest.(check int) "the post-reset entry survives and hits" 1
    (Memo.counters cache).Memo.schedule_hits

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

let test_compile_memo_trace () =
  let c = Pom.compile ~framework:`Pom_auto (Polybench.gemm 32) in
  let memo_line =
    List.find_opt
      (fun line -> String.length line >= 5 && String.sub line 0 5 = "memo:")
      c.Pom.trace
  in
  match memo_line with
  | None -> Alcotest.fail "no memo summary in the DSE trace"
  | Some line ->
      let hits = Scanf.sscanf line "memo: %d of %d" (fun h _ -> h) in
      Alcotest.(check bool) "cache hit count > 0" true (hits > 0)

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

let test_compile_warm_equals_cold () =
  (* both compiles go through Memo.global: the second is served from the
     cache and must reproduce the first result exactly *)
  let a = Pom.compile ~framework:`Scalehls (Polybench.gemm 32) in
  let hits0 = (Memo.counters Memo.global).Memo.report_hits in
  let b = Pom.compile ~framework:`Scalehls (Polybench.gemm 32) in
  Alcotest.(check bool) "second compile hit the memo" true
    ((Memo.counters Memo.global).Memo.report_hits > hits0);
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
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "memo",
        [
          Alcotest.test_case "schedule cache" `Quick test_schedule_memo;
          Alcotest.test_case "report cache hit is free and identical" `Quick
            test_report_memo_hit_is_free_and_identical;
          Alcotest.test_case "keys distinguish sizes and devices" `Quick
            test_memo_distinguishes_sizes_and_devices;
          Alcotest.test_case "capacity guard evicts" `Quick
            test_memo_capacity_guard;
        ] );
      ( "compile",
        [
          Alcotest.test_case "per-pass records" `Quick test_compile_records;
          Alcotest.test_case "memo summary in DSE trace" `Quick
            test_compile_memo_trace;
          Alcotest.test_case "dump-after" `Quick test_compile_dump_after;
          Alcotest.test_case "verify-each" `Quick test_compile_verify_each;
          Alcotest.test_case "warm compile equals cold" `Quick
            test_compile_warm_equals_cold;
        ] );
    ]
