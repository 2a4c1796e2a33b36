(* The refutation engine: generators, oracles, shrinking, the corpus
   format, and replay of the committed counterexample corpus.

   The committed corpus under test/refute-corpus/ holds shrunk
   counterexamples the engine once found (plus pinned representative
   cases); every entry must keep PASSING here — a Fail verdict means a
   fixed bug resurfaced.  Re-bless with POM_REFUTE_BLESS=<dir> pointing at
   the source test/refute-corpus directory after an intentional
   wire-format or generator change. *)

open Pom_poly
module Refute = Pom_refute
module Case = Refute.Case
module Oracle = Refute.Oracle
module Engine = Refute.Engine

let v = Linexpr.var

let c = Linexpr.const

(* the first counterexample the engine ever found: eliminating k (coeff 3)
   is inexact, so different elimination orders give different sound
   over-approximations — the unconditional order-invariance claim is false *)
let historical_inexact =
  Case.make_poly ~dims:[ "i"; "j"; "k" ] ~lo:(-1) ~hi:1
    [
      Constr.Ge
        (Linexpr.add
           (Linexpr.term 3 "i")
           (Linexpr.add (v "j") (Linexpr.add (Linexpr.term (-3) "k") (c 1))));
      Constr.Ge (Linexpr.add (Linexpr.neg (v "i")) (Linexpr.term 3 "k"));
    ]

(* the shape that refuted the first draft of the cycle-bound simulator:
   pipelining the outermost level fully unrolls everything beneath it, so
   a bound that still counts the inner iterations as serial steps sits
   above the (correct) model latency.  Pinned so the concession is never
   lost: the oracle must keep accepting this program. *)
let qor_pipeline_full_unroll =
  let module Dsl = Pom.Dsl in
  let f = Dsl.Func.create "refute" in
  let a = Dsl.Placeholder.make "A" [ 8; 8 ] Dsl.Dtype.p_float32
  and cc = Dsl.Placeholder.make "C" [ 8; 8 ] Dsl.Dtype.p_float32 in
  let iters =
    [ Dsl.Var.make "i" 0 4; Dsl.Var.make "j" 0 4; Dsl.Var.make "k" 0 4 ]
  in
  ignore
    (Dsl.Func.compute f "s0" ~iters
       ~body:(Dsl.Expr.access cc [ Dsl.Expr.ix_name "i"; Dsl.Expr.ix_name "j" ])
       ~dest:(a, [ Dsl.Expr.ix_name "k"; Dsl.Expr.ix_name "i" ])
       ());
  Dsl.Func.schedule f (Dsl.Schedule.pipeline "s0" "i" 1);
  f

(* pinned corpus: the historical counterexample plus deterministic
   generator output, one per family.

   The draws are sequenced with explicit lets because list literals
   evaluate right to left: drawing inside the literal would silently
   reshuffle every earlier pinned case each time a family is appended.
   The let order below reproduces the evaluation order the corpus was
   originally blessed under (last list element first); new families must
   add their draws at the END of the let chain. *)
let pinned_cases () =
  let rand = Random.State.make [| 2024; 0xb1e55 |] in
  let g gen = QCheck.Gen.generate1 ~rand gen in
  let d1 = g (Refute.Gen.func ()) in
  let s2 = g (Refute.Gen.func ()) in
  let s1 = g (Refute.Gen.func ()) in
  let p3 = g (Refute.Gen.poly ()) in
  let p2 = g (Refute.Gen.poly ()) in
  let q1 = g (Refute.Gen.func ()) in
  [
    Case.Poly historical_inexact;
    Case.Poly p2;
    Case.Poly p3;
    Case.Semantic s1;
    Case.Semantic s2;
    Case.Degrade d1;
    Case.Qor qor_pipeline_full_unroll;
    Case.Qor q1;
  ]

let corpus_dir = "refute-corpus"

let test_bless_or_check_corpus () =
  match Sys.getenv_opt "POM_REFUTE_BLESS" with
  | Some dir when dir <> "" ->
      List.iter
        (fun case ->
          let path = Refute.Corpus.save dir case in
          Printf.printf "blessed %s\n" path)
        (pinned_cases ())
  | _ ->
      (* every pinned case must still be present in the committed corpus
         (same id => same file name and same encoding) *)
      let on_disk = List.map fst (Refute.Corpus.load_all corpus_dir) in
      List.iter
        (fun case ->
          let expected =
            Filename.concat corpus_dir (Case.id case ^ ".case")
          in
          Alcotest.(check bool)
            (expected ^ " is committed")
            true
            (List.mem expected on_disk))
        (pinned_cases ())

let test_corpus_replay () =
  let results = Engine.replay corpus_dir in
  Alcotest.(check bool) "corpus is non-empty" true (List.length results >= 8);
  List.iter
    (fun (path, _, verdict) ->
      match verdict with
      | Oracle.Fail d ->
          Alcotest.failf "regression resurfaced on %s: %s %s" path
            d.Pom.Analysis.Diagnostic.code d.Pom.Analysis.Diagnostic.message
      | _ -> ())
    results

let test_corpus_roundtrip () =
  let dir = Filename.temp_file "refute" "" in
  Sys.remove dir;
  let case = Case.Poly historical_inexact in
  let path = Refute.Corpus.save dir case in
  let case' = Refute.Corpus.load path in
  Alcotest.(check string) "id survives the round trip" (Case.id case)
    (Case.id case');
  let module W = Pom_wire.Wire in
  Alcotest.(check string)
    "re-encoding is byte-stable"
    (W.to_string Case.codec case)
    (W.to_string Case.codec case')

let test_corpus_corruption () =
  let dir = Filename.temp_file "refute" "" in
  Sys.remove dir;
  let path = Refute.Corpus.save dir (Case.Poly historical_inexact) in
  let bytes =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* flip one payload byte: the record CRC must catch it *)
  let broken = Bytes.of_string bytes in
  let i = String.length bytes - 3 in
  Bytes.set broken i (Char.chr (Char.code (Bytes.get broken i) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc broken;
  close_out oc;
  match Refute.Corpus.load path with
  | _ -> Alcotest.fail "expected Corrupt on a flipped byte"
  | exception Pom_wire.Wire.Corrupt _ -> ()

let test_historical_case_documents_inexactness () =
  (* the committed counterexample demonstrates genuine order dependence of
     the over-approximation: the two elimination orders disagree on some
     box point — yet the corrected oracle accepts both as sound *)
  let p = historical_inexact in
  let s = Case.set_of_poly p in
  let chain order =
    List.fold_left (fun t d -> Basic_set.project_out d t) s order
  in
  let p1 = chain [ "j"; "k" ] and p2 = chain [ "k"; "j" ] in
  let disagree =
    List.exists
      (fun x ->
        let env _ = x in
        Basic_set.mem env p1 <> Basic_set.mem env p2)
      [ -1; 0; 1 ]
  in
  Alcotest.(check bool) "orders genuinely disagree on this set" true disagree;
  match Oracle.check_poly p with
  | Oracle.Pass -> ()
  | verdict ->
      Alcotest.failf "oracle should accept the gated property: %a"
        Oracle.pp_verdict verdict

let test_engine_deterministic () =
  let run () = Engine.run ~seed:42 ~cases:80 `Poly in
  let a = run () and b = run () in
  Alcotest.(check int) "same cases" a.Engine.cases b.Engine.cases;
  Alcotest.(check int) "same passes" a.Engine.passed b.Engine.passed;
  Alcotest.(check int) "same skips" a.Engine.skipped b.Engine.skipped;
  Alcotest.(check int)
    "same findings"
    (List.length a.Engine.findings)
    (List.length b.Engine.findings)

let test_engine_poly_clean () =
  let s = Engine.run ~seed:7 ~cases:400 `Poly in
  Alcotest.(check int) "all cases ran" 400 s.Engine.cases;
  Alcotest.(check (list string)) "no counterexamples" []
    (List.map
       (fun (f : Engine.finding) -> f.Engine.diag.Pom.Analysis.Diagnostic.code)
       s.Engine.findings)

let test_engine_semantic_clean () =
  let s = Engine.run ~seed:7 ~cases:60 `Semantic in
  Alcotest.(check int) "all cases ran" 60 s.Engine.cases;
  Alcotest.(check (list string)) "no counterexamples" []
    (List.map
       (fun (f : Engine.finding) -> f.Engine.diag.Pom.Analysis.Diagnostic.code)
       s.Engine.findings)

let test_engine_degrade_clean () =
  let s = Engine.run ~seed:7 ~cases:15 `Degrade in
  Alcotest.(check int) "all cases ran" 15 s.Engine.cases;
  Alcotest.(check (list string)) "no counterexamples" []
    (List.map
       (fun (f : Engine.finding) -> f.Engine.diag.Pom.Analysis.Diagnostic.code)
       s.Engine.findings)

let test_engine_qor_clean () =
  let s = Engine.run ~seed:7 ~cases:150 `Qor in
  Alcotest.(check int) "all cases ran" 150 s.Engine.cases;
  Alcotest.(check (list string)) "no counterexamples" []
    (List.map
       (fun (f : Engine.finding) -> f.Engine.diag.Pom.Analysis.Diagnostic.code)
       s.Engine.findings)

let test_qor_bounds_sane () =
  (* a 4x4x4 nest with j unrolled by 2: the serial bound must count
     4 * 2 * 4 = 32 steps, and the synthesized latency must sit on or
     above every bound (the oracle passes) *)
  let module Dsl = Pom.Dsl in
  let f = Dsl.Func.create "refute" in
  let a = Dsl.Placeholder.make "A" [ 8; 8 ] Dsl.Dtype.p_float32
  and b = Dsl.Placeholder.make "B" [ 8; 8 ] Dsl.Dtype.p_float32 in
  let iters =
    [ Dsl.Var.make "i" 0 4; Dsl.Var.make "j" 0 4; Dsl.Var.make "k" 0 4 ]
  in
  ignore
    (Dsl.Func.compute f "s0" ~iters
       ~body:(Dsl.Expr.access b [ Dsl.Expr.ix_name "j"; Dsl.Expr.ix_name "k" ])
       ~dest:(a, [ Dsl.Expr.ix_name "i"; Dsl.Expr.ix_name "j" ])
       ());
  Dsl.Func.schedule f (Dsl.Schedule.unroll "s0" "j" 2);
  let prog = Pom.Polyir.Prog.of_func f in
  (match Pom.Sim.Cycles.of_prog prog with
  | None -> Alcotest.fail "64-instance nest should enumerate"
  | Some [ bounds ] ->
      Alcotest.(check int) "instances" 64 bounds.Pom.Sim.Cycles.instances;
      Alcotest.(check int) "serial bound" 32 bounds.Pom.Sim.Cycles.serial_bound;
      (* busiest bank: 16 distinct elements of unpartitioned A (or B)
         through two ports *)
      Alcotest.(check int) "port bound" 8 bounds.Pom.Sim.Cycles.port_bound
  | Some l -> Alcotest.failf "expected one group, got %d" (List.length l));
  (match Oracle.check_qor f with
  | Oracle.Pass -> ()
  | verdict ->
      Alcotest.failf "model should respect its own bounds: %a"
        Oracle.pp_verdict verdict);
  (* the pinned full-unroll-under-pipeline shape must stay accepted *)
  match Oracle.check_qor qor_pipeline_full_unroll with
  | Oracle.Pass -> ()
  | verdict ->
      Alcotest.failf "pipeline concession regressed: %a" Oracle.pp_verdict
        verdict

let test_engine_budget_stops () =
  (* an already-expired deadline must stop the engine at the first case
     boundary, cleanly and with the exhausted flag *)
  Pom.Resilience.Budget.with_budget ~deadline_s:0.0 (fun () ->
      Unix.sleepf 0.002;
      let s = Engine.run ~seed:1 ~cases:1000 `Poly in
      Alcotest.(check bool) "stopped early" true (s.Engine.cases < 1000);
      Alcotest.(check bool) "flagged exhausted" true s.Engine.exhausted)

let test_shrink_produces_smaller_valid_cases () =
  let rand = Random.State.make [| 5 |] in
  for _ = 1 to 30 do
    let p = QCheck.Gen.generate1 ~rand (Refute.Gen.poly ()) in
    List.iter
      (fun (q : Case.poly) ->
        (* a shrink candidate is structurally no larger and still valid
           (make_poly re-validates) *)
        let size (x : Case.poly) =
          List.length x.Case.dims + List.length x.Case.extra
          + (x.Case.hi - x.Case.lo)
        in
        Alcotest.(check bool) "shrunk candidate not larger" true
          (size q <= size p))
      (Refute.Gen.shrink_poly p)
  done;
  for _ = 1 to 10 do
    let f = QCheck.Gen.generate1 ~rand (Refute.Gen.func ()) in
    List.iter
      (fun g ->
        let size h =
          List.length (Pom.Dsl.Func.computes h)
          + List.length (Pom.Dsl.Func.directives h)
        in
        Alcotest.(check bool) "shrunk func not larger" true (size g <= size f))
      (Refute.Gen.shrink_func f)
  done

let test_verdict_fail_detection () =
  (* the oracle plumbing, not the checked code: a hand-built impossible
     claim must be reported as Fail, proving the engine can see red *)
  let d =
    Pom.Analysis.Diagnostic.error ~code:"POM401" ~loc:[ "refute" ] "synthetic"
  in
  Alcotest.(check bool) "is_fail" true (Oracle.is_fail (Oracle.Fail d));
  Alcotest.(check bool) "pass is not fail" false (Oracle.is_fail Oracle.Pass)

let () =
  Alcotest.run "refute"
    [
      ( "corpus",
        [
          Alcotest.test_case "bless or check pinned cases" `Quick
            test_bless_or_check_corpus;
          Alcotest.test_case "replay committed corpus" `Quick
            test_corpus_replay;
          Alcotest.test_case "save/load round trip" `Quick
            test_corpus_roundtrip;
          Alcotest.test_case "corruption detection" `Quick
            test_corpus_corruption;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "historical inexactness counterexample" `Quick
            test_historical_case_documents_inexactness;
          Alcotest.test_case "verdict plumbing" `Quick
            test_verdict_fail_detection;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic under a seed" `Quick
            test_engine_deterministic;
          Alcotest.test_case "poly family clean" `Quick test_engine_poly_clean;
          Alcotest.test_case "semantic family clean" `Quick
            test_engine_semantic_clean;
          Alcotest.test_case "degrade family clean" `Quick
            test_engine_degrade_clean;
          Alcotest.test_case "qor family clean" `Quick test_engine_qor_clean;
          Alcotest.test_case "qor bounds sane" `Quick test_qor_bounds_sane;
          Alcotest.test_case "budget stops the search" `Quick
            test_engine_budget_stops;
          Alcotest.test_case "shrink candidates are smaller" `Quick
            test_shrink_produces_smaller_valid_cases;
        ] );
    ]
