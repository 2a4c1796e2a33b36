(* The static-analysis layer: diagnostics, the affine-IR verifier, the
   polyhedral out-of-bounds check, the dependence-aware pragma linter, and
   the DSE pre-pruning oracle. *)

open Pom.Dsl
module D = Pom.Analysis.Diagnostic
module Verify = Pom.Analysis.Verify_ir
module Lint = Pom.Analysis.Lint
module Ir = Pom.Affine.Ir
module Prog = Pom.Polyir.Prog

let codes ds = List.sort_uniq compare (List.map (fun d -> d.D.code) ds)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- diagnostics ---- *)

let e1 = D.error ~code:"POM103" ~loc:[ "f"; "s" ] "rank mismatch"

let w1 = D.warning ~code:"POM201" ~loc:[ "f" ] ~note:"raise the ii" "low ii"

let h1 = D.hint ~code:"POM204" ~loc:[ "f" ] "dead partition"

let errors = List.filter (fun d -> d.D.severity = D.Error)

let render = Format.asprintf "%a" D.pp

let test_diag_ordering () =
  let sorted = D.sort [ h1; w1; e1 ] in
  Alcotest.(check (list string))
    "severity order" [ "POM103"; "POM201"; "POM204" ]
    (List.map (fun d -> d.D.code) sorted)

let test_diag_filters () =
  Alcotest.(check bool) "has_errors" true (D.has_errors [ w1; e1 ]);
  Alcotest.(check bool) "warnings and hints are not errors" false
    (D.has_errors [ w1; h1 ]);
  let promoted = D.promote_warnings [ w1; h1 ] in
  Alcotest.(check bool) "Werror promotes warnings" true (D.has_errors promoted);
  Alcotest.(check int) "hints untouched" 1 (List.length (errors promoted))

let test_diag_rendering () =
  Alcotest.(check string) "summary counts" "1 error, 1 warning, 1 hint"
    (D.summary [ e1; w1; h1 ]);
  Alcotest.(check string) "empty is clean" "clean" (D.summary []);
  Alcotest.(check string) "plural" "2 errors" (D.summary [ e1; e1 ]);
  let s = render w1 in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("rendered: " ^ frag) true (contains s frag))
    [ "POM201"; "warning"; "low ii"; "raise the ii" ]

(* ---- structural verification of a handcrafted affine function ---- *)

let b k = { Pom.Poly.Ast.coef = 1; expr = Pom.Poly.Linexpr.const k }

let bad_affine_func () =
  let a = Placeholder.make "A" [ 8; 8 ] Dtype.p_float32 in
  let arrays =
    [
      (* non-positive factor: POM106 *)
      { Ir.placeholder = a; partition = [ 0; 1 ]; partition_kind = Schedule.Cyclic };
      (* duplicate entry (POM105) with a rank-1 vector (POM106) *)
      { Ir.placeholder = a; partition = [ 2 ]; partition_kind = Schedule.Cyclic };
    ]
  in
  let op =
    Ir.Op
      {
        Ir.compute_name = "s";
        (* one index on a rank-2 array: POM103 *)
        dest = (a, [ Expr.Ix_var "i" ]);
        (* "z" is bound by no loop: POM101 *)
        rhs = Expr.access a [ Expr.Ix_var "i"; Expr.Ix_var "z" ];
      }
  in
  let shadowing =
    (* inner loop reuses "i": POM102 *)
    Ir.For
      { iter = "i"; lbs = [ b 0 ]; ubs = [ b 7 ]; attrs = Ir.no_attrs;
        body = [ op ] }
  in
  let degenerate =
    (* lb 5 > ub 3: POM104 *)
    Ir.For
      { iter = "d"; lbs = [ b 5 ]; ubs = [ b 3 ]; attrs = Ir.no_attrs;
        body = [] }
  in
  {
    Ir.name = "bad";
    arrays;
    body =
      [
        Ir.For
          { iter = "i"; lbs = [ b 0 ]; ubs = [ b 7 ]; attrs = Ir.no_attrs;
            body = [ shadowing; degenerate ] };
      ];
  }

let test_verify_func () =
  let ds = Verify.verify_func (bad_affine_func ()) in
  Alcotest.(check (list string))
    "every structural code fires"
    [ "POM101"; "POM102"; "POM103"; "POM104"; "POM105"; "POM106" ]
    (codes ds);
  Alcotest.(check bool) "undefined iterator is an error" true
    (List.exists (fun d -> d.D.code = "POM101" && d.D.severity = D.Error) ds);
  Alcotest.(check bool) "shadowing is a warning" true
    (List.exists (fun d -> d.D.code = "POM102" && d.D.severity = D.Warning) ds)

let test_verify_func_clean () =
  let prog = Prog.of_func_unscheduled (Pom.Workloads.Polybench.gemm 16) in
  Alcotest.(check (list string)) "gemm verifies clean" []
    (codes (Verify.verify prog))

(* ---- polyhedral out-of-bounds analysis ---- *)

let shifted_read () =
  let open Expr in
  let f = Func.create "shifted" in
  let n = 8 in
  let dst = Placeholder.make "dst" [ n ] Dtype.p_float32 in
  let src = Placeholder.make "src" [ n ] Dtype.p_float32 in
  let i = Var.make "i" 0 n in
  let _ =
    Func.compute f "s" ~iters:[ i ]
      ~body:(access src [ ix i +! ixc 1 ])
      ~dest:(dst, [ ix i ]) ()
  in
  f

let test_verify_bounds () =
  let ds = Verify.verify_bounds (Prog.of_func_unscheduled (shifted_read ())) in
  Alcotest.(check (list string)) "escape detected" [ "POM110" ] (codes ds);
  let d = List.hd ds in
  Alcotest.(check bool) "names the array" true
    (contains (String.concat "/" d.D.loc) "array src");
  Alcotest.(check bool) "witness set in the note" true
    (match d.D.note with Some n -> contains n "witness" | None -> false)

(* ---- pragma lint ---- *)

let lint_gemm scheds =
  let f = Pom.Workloads.Polybench.gemm 32 in
  Lint.lint (Prog.apply_all (Prog.of_func_unscheduled f) scheds)

let check_codes name expected scheds =
  Alcotest.(check (list string)) name expected (codes (lint_gemm scheds))

let test_lint_pipeline_ii () =
  (* gemm's reduction carries a dependence at k: II=1 is unachievable *)
  let ds = lint_gemm [ Schedule.pipeline "s" "k" 1 ] in
  Alcotest.(check bool) "POM201 fires" true (List.mem "POM201" (codes ds));
  Alcotest.(check bool) "achievable II is suggested" true
    (List.exists
       (fun d ->
         d.D.code = "POM201"
         && match d.D.note with
            | Some n -> contains n "pipeline_ii >="
            | None -> false)
       ds);
  (* a feasible target is accepted *)
  check_codes "generous II is clean" [] [ Schedule.pipeline "s" "k" 8 ]

let test_lint_serializing_unroll () =
  let ds = lint_gemm [ Schedule.unroll "s" "k" 4 ] in
  Alcotest.(check bool) "POM202 fires on the carried level" true
    (List.mem "POM202" (codes ds))

let test_lint_bank_conflict () =
  (* unrolling j demands 4 ports on D and B, but nothing is partitioned *)
  let ds = lint_gemm [ Schedule.unroll "s" "j" 4 ] in
  Alcotest.(check bool) "POM203 fires" true (List.mem "POM203" (codes ds));
  Alcotest.(check bool) "no serialization claim" false
    (List.mem "POM202" (codes ds));
  (* partitioning the varying dimension of both arrays resolves it *)
  check_codes "partitioned unroll is clean" []
    [
      Schedule.unroll "s" "j" 4;
      Schedule.partition "D" [ 1; 4 ] Schedule.Cyclic;
      Schedule.partition "B" [ 1; 4 ] Schedule.Cyclic;
    ]

let test_lint_non_dividing () =
  check_codes "non-dividing unroll" [ "POM203"; "POM205" ]
    [ Schedule.unroll "s" "j" 3 ];
  check_codes "non-dividing partition" [ "POM205" ]
    [ Schedule.partition "D" [ 5; 1 ] Schedule.Cyclic ]

let test_lint_pipeline_unroll_conflict () =
  let ds =
    lint_gemm [ Schedule.pipeline "s" "j" 1; Schedule.unroll "s" "j" 2 ]
  in
  Alcotest.(check bool) "POM206 fires" true (List.mem "POM206" (codes ds))

let test_lint_dead_partition () =
  let ds = lint_gemm [ Schedule.partition "D" [ 4; 4 ] Schedule.Cyclic ] in
  Alcotest.(check (list string)) "dead partition is a hint" [ "POM204" ]
    (codes ds);
  Alcotest.(check int) "one hint per dead dimension" 2
    (List.length ds);
  Alcotest.(check bool) "hints are not errors" false (D.has_errors ds)

let test_lint_malformed_partition () =
  check_codes "unknown array" [ "POM207" ]
    [ Schedule.partition "Z" [ 2 ] Schedule.Cyclic ];
  check_codes "rank mismatch" [ "POM207" ]
    [ Schedule.partition "D" [ 2 ] Schedule.Cyclic ];
  check_codes "non-positive factor" [ "POM207" ]
    [ Schedule.partition "D" [ 0; 1 ] Schedule.Cyclic ]

(* ---- the DSE pre-pruning oracle ---- *)

(* The pre-pruning oracle compares hardware signatures: a candidate whose
   signature is the incumbent's is the incumbent under another name. *)
let test_oracle () =
  let base = Prog.of_func_unscheduled (Pom.Workloads.Polybench.gemm 32) in
  let before = Lint.hw_signature base in
  let changes prog = Lint.hw_signature prog <> before in
  Alcotest.(check bool) "identical program: same signature" false
    (changes base);
  Alcotest.(check bool) "an unroll changes the signature" true
    (changes (Prog.apply base (Schedule.unroll "s" "j" 4)));
  Alcotest.(check bool) "a pipeline changes the signature" true
    (changes (Prog.apply base (Schedule.pipeline "s" "k" 2)));
  (* partitioning alone does not touch the loop structure the QoR model
     prices, so it is not "more parallelism" *)
  Alcotest.(check bool) "a bare partition does not" false
    (changes
       (Prog.apply base (Schedule.partition "D" [ 1; 4 ] Schedule.Cyclic)))

(* The copies an unroll materializes count only on dependence-free
   levels. *)
let test_effective_unroll () =
  let base = Prog.of_func_unscheduled (Pom.Workloads.Polybench.gemm 32) in
  let copies prog =
    List.map Pom.Hls.Latency.effective_unroll (Pom.Hls.Summary.profile_all prog)
  in
  Alcotest.(check (list int)) "no directives" [ 1 ] (copies base);
  Alcotest.(check (list int)) "dependence-free unroll counts" [ 4 ]
    (copies (Prog.apply base (Schedule.unroll "s" "j" 4)));
  Alcotest.(check (list int)) "an unroll along the carrying level adds none"
    [ 1 ]
    (copies (Prog.apply base (Schedule.unroll "s" "k" 4)))

(* The acceptance criterion: Stage 2 drops at least one design point before
   pricing it, prices every evaluation exactly once, and the trace says
   why. *)
let test_stage2_pruning () =
  let f = Pom.Workloads.Polybench.bicg 1024 in
  let stage1 = Pom.Dse.Stage1.run f in
  let synth0 = Pom.Hls.Report.synth_count () in
  let r = Pom.Dse.Stage2.run f stage1 in
  let synths = Pom.Hls.Report.synth_count () - synth0 in
  Alcotest.(check bool) "at least one point pruned" true
    (r.Pom.Dse.Stage2.pruned >= 1);
  Alcotest.(check int) "one synthesis per evaluation, none for a pruned point"
    r.Pom.Dse.Stage2.evaluations synths;
  Alcotest.(check bool) "the trace records the pruning" true
    (List.exists
       (fun l -> contains l "pruned by the analyzer")
       r.Pom.Dse.Stage2.trace)

(* ---- every shipped workload must analyze clean ---- *)

let check_clean name (c : Pom.compiled) =
  Alcotest.(check int) (name ^ ": no legality violations") 0
    c.Pom.legality_violations;
  Alcotest.(check (list string)) (name ^ ": no analyzer errors") []
    (List.map render (errors c.Pom.diags))

let test_workloads_clean () =
  let size = 16 in
  List.iter
    (fun (name, mk) ->
      check_clean name (Pom.compile ~framework:`Pom_manual (mk size)))
    (Pom.Workloads.Polybench.by_name @ Pom.Workloads.Image.by_name)

let test_dnn_workloads_clean () =
  List.iter
    (fun (name, mk) ->
      check_clean name (Pom.compile ~framework:`Pom_manual ~dnn:true (mk ())))
    Pom.Workloads.Dnn.by_name

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "ordering" `Quick test_diag_ordering;
          Alcotest.test_case "filters and promotion" `Quick test_diag_filters;
          Alcotest.test_case "rendering" `Quick test_diag_rendering;
        ] );
      ( "verify-ir",
        [
          Alcotest.test_case "structural codes" `Quick test_verify_func;
          Alcotest.test_case "clean workload" `Quick test_verify_func_clean;
          Alcotest.test_case "out-of-bounds access" `Quick test_verify_bounds;
        ] );
      ( "lint",
        [
          Alcotest.test_case "infeasible pipeline_ii" `Quick
            test_lint_pipeline_ii;
          Alcotest.test_case "serializing unroll" `Quick
            test_lint_serializing_unroll;
          Alcotest.test_case "bank conflict" `Quick test_lint_bank_conflict;
          Alcotest.test_case "non-dividing factors" `Quick
            test_lint_non_dividing;
          Alcotest.test_case "pipeline+unroll conflict" `Quick
            test_lint_pipeline_unroll_conflict;
          Alcotest.test_case "dead partition" `Quick test_lint_dead_partition;
          Alcotest.test_case "malformed partition" `Quick
            test_lint_malformed_partition;
        ] );
      ( "dse-pruning",
        [
          Alcotest.test_case "hardware-signature oracle" `Quick test_oracle;
          Alcotest.test_case "effective parallelism" `Quick
            test_effective_unroll;
          Alcotest.test_case "stage2 prunes before synthesis" `Quick
            test_stage2_pruning;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "polybench+image analyze clean" `Quick
            test_workloads_clean;
          Alcotest.test_case "dnn analyze clean" `Quick
            test_dnn_workloads_clean;
        ] );
    ]
