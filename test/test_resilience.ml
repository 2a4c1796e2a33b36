(* The resilience layer: cooperative budgets, typed failures and per-pass
   degradation, crash-safe DSE checkpointing, and the deterministic
   fault-injection knob that exercises all of it. *)

module R = Pom_resilience
module Polybench = Pom_workloads.Polybench

let with_faults spec f =
  R.Fault.configure spec;
  Fun.protect ~finally:R.Fault.reset f

let contains ~sub line =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length line && (String.sub line i n = sub || from (i + 1))
  in
  from 0

(* -------- budgets -------- *)

let test_budget_deadline () =
  (match
     R.Budget.with_budget ~deadline_s:0.0 (fun () ->
         Unix.sleepf 0.002;
         R.Budget.check "test:deadline")
   with
  | exception R.Budget.Budget_exceeded { site; _ } ->
      Alcotest.(check string) "site" "test:deadline" site
  | () -> Alcotest.fail "expected the deadline to trip");
  (* the expired budget ends with [with_budget]: a later check is free *)
  R.Budget.check "test:deadline"

let test_budget_noop_without_install () =
  (* without a budget every check is free and silent *)
  R.Budget.check "test:none"

let test_budget_cancel () =
  (* an external cancel poll trips a checkpoint exactly like a deadline *)
  let cancelled = Atomic.make false in
  (match
     R.Budget.with_budget
       ~cancel:(fun () -> Atomic.get cancelled)
       (fun () ->
         R.Budget.check "test:cancel";
         Atomic.set cancelled true;
         R.Budget.check "test:cancel")
   with
  | exception R.Budget.Budget_exceeded { site; reason } ->
      Alcotest.(check string) "site" "test:cancel" site;
      Alcotest.(check string) "reason" "request cancelled" reason
  | () -> Alcotest.fail "expected cancellation to trip the budget");
  (* a poll that raises is treated as not-cancelled, never as a crash *)
  R.Budget.with_budget
    ~cancel:(fun () -> failwith "poll blew up")
    (fun () -> R.Budget.check "test:cancel-raise")

(* -------- policy -------- *)

let test_policy_parse () =
  Alcotest.(check bool) "abort" true
    (R.Policy.of_string "abort" = Ok R.Policy.Abort);
  Alcotest.(check bool) "degrade" true
    (R.Policy.of_string "degrade" = Ok R.Policy.Degrade);
  Alcotest.(check bool) "junk rejected" true
    (match R.Policy.of_string "explode" with Error _ -> true | Ok _ -> false);
  R.Policy.with_policy R.Policy.Degrade (fun () ->
      Alcotest.(check bool) "degrading inside" true (R.Policy.degrading ()));
  Alcotest.(check bool) "restored outside" false (R.Policy.degrading ())

(* -------- fault injection -------- *)

let test_fault_spec () =
  with_faults "test:site=fail@2" (fun () ->
      R.Fault.point "test:site";
      R.Fault.point "test:other";
      match R.Fault.point "test:site" with
      | exception R.Fault.Injected site ->
          Alcotest.(check string) "second visit fires" "test:site" site
      | () -> Alcotest.fail "expected the injected failure");
  Alcotest.(check bool) "reset disarms" false (R.Fault.enabled ());
  Alcotest.(check bool) "malformed spec rejected" true
    (match R.Fault.configure "nonsense" with
    | exception Invalid_argument _ -> true
    | () ->
        R.Fault.reset ();
        false)

let test_fault_kinds () =
  with_faults "a=timeout@1,b=kill@1" (fun () ->
      (match R.Fault.point "a" with
      | exception R.Budget.Budget_exceeded _ -> ()
      | () -> Alcotest.fail "timeout kind should raise Budget_exceeded");
      match R.Fault.point "b" with
      | exception R.Fault.Killed "b" -> ()
      | _ -> Alcotest.fail "kill kind should raise Killed")

(* -------- checkpoint journal -------- *)

(* The journal under test holds plain strings. *)
let load_strings ?fsync_each path =
  match R.Checkpoint.load ?fsync_each Pom_wire.Wire.string path with
  | Some j, records, notes -> (j, records, notes)
  | None, _, notes ->
      Alcotest.failf "journal not opened: %s" (String.concat "; " notes)

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "pom_ckpt" ".jrnl" in
  Sys.remove path;
  let j, recs, _ = load_strings path in
  Alcotest.(check int) "fresh journal empty" 0 (List.length recs);
  R.Checkpoint.append j ~key:"k1" "d1";
  R.Checkpoint.append j ~key:"k2" "d2";
  R.Checkpoint.close j;
  let j2, recs2, notes2 = load_strings path in
  R.Checkpoint.close j2;
  Alcotest.(check (list (pair string string)))
    "records replay in order"
    [ ("k1", "d1"); ("k2", "d2") ]
    recs2;
  Alcotest.(check (list string)) "clean reload carries no notes" [] notes2;
  (* a crash mid-append leaves a torn tail: it must be truncated away and
     the journal must keep accepting appends afterwards *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "torn";
  close_out oc;
  let j3, recs3, notes3 = load_strings path in
  Alcotest.(check int) "torn tail dropped" 2 (List.length recs3);
  Alcotest.(check bool) "truncation is reported" true (notes3 <> []);
  R.Checkpoint.append j3 ~key:"k3" "d3";
  R.Checkpoint.close j3;
  let j4, recs4, _ = load_strings path in
  R.Checkpoint.close j4;
  Alcotest.(check int) "extends cleanly after recovery" 3 (List.length recs4);
  (* a value the codec cannot decode is dropped with one POM308 note *)
  (match R.Checkpoint.load Pom_wire.Wire.int path with
  | Some j, records, notes ->
      R.Checkpoint.close j;
      Alcotest.(check int) "undecodable values dropped" 0 (List.length records);
      Alcotest.(check (list string)) "one POM308 note"
        [ "checkpoint: dropped 3 undecodable record(s) (POM308)" ]
        notes
  | None, _, _ -> Alcotest.fail "journal not opened");
  (* an unrecognized header is restarted empty, not trusted *)
  let oc = open_out_bin path in
  output_string oc "NOTAJRNL\nwhatever";
  close_out oc;
  let j5, recs5, _ = load_strings path in
  R.Checkpoint.close j5;
  Alcotest.(check int) "bad magic restarts empty" 0 (List.length recs5);
  Sys.remove path;
  (* a path that cannot be created is no journal and a POM306 note *)
  match R.Checkpoint.load Pom_wire.Wire.string "/nonexistent-dir/j" with
  | None, [], [ note ] ->
      Alcotest.(check bool) "POM306 note" true (contains ~sub:"(POM306)" note)
  | _ -> Alcotest.fail "an uncreatable journal must load as none"

let test_checkpoint_fsync_each () =
  (* fsync_each is a durability knob, not a behaviour change: records
     written under it replay identically *)
  let path = Filename.temp_file "pom_ckpt_sync" ".jrnl" in
  Sys.remove path;
  let j, _, _ = load_strings ~fsync_each:true path in
  R.Checkpoint.append j ~key:"k1" "d1";
  R.Checkpoint.append j ~key:"k2" "d2";
  R.Checkpoint.close j;
  let j2, recs2, notes2 = load_strings path in
  R.Checkpoint.close j2;
  Alcotest.(check (list (pair string string)))
    "synced records replay" [ ("k1", "d1"); ("k2", "d2") ] recs2;
  Alcotest.(check (list string)) "no degradation notes" [] notes2;
  Sys.remove path

(* -------- per-pass degradation matrix -------- *)

(* Inject a failure into each pass of the `Baseline flow in turn.  Under
   --on-error degrade a skippable pass becomes a POM300 warning diagnostic
   and the compile still delivers; a required pass (one that produces the
   artifact) aborts with the typed error under either policy. *)
let skippable_passes =
  [ "structural-directives"; "legality-check"; "lint-pragmas"; "verify-ir" ]

let required_passes =
  [
    "schedule-apply";
    "hls-synthesize";
    "affine-lower";
    "affine-simplify";
    "emit-hls-c";
  ]

let test_fault_matrix_degrade () =
  List.iter
    (fun name ->
      with_faults
        (Printf.sprintf "pass:%s=fail@1" name)
        (fun () ->
          let c =
            Pom.compile ~framework:`Baseline ~on_error:R.Policy.Degrade
              (Polybench.gemm 16)
          in
          Alcotest.(check bool)
            (name ^ " degraded to a POM300 diagnostic")
            true
            (List.exists
               (fun (d : Pom_analysis.Diagnostic.t) ->
                 d.Pom_analysis.Diagnostic.code = "POM300"
                 && (match d.Pom_analysis.Diagnostic.loc with
                    | p :: _ -> p = name
                    | [] -> false))
               c.Pom.diags)))
    skippable_passes;
  List.iter
    (fun name ->
      with_faults
        (Printf.sprintf "pass:%s=fail@1" name)
        (fun () ->
          match
            Pom.compile ~framework:`Baseline ~on_error:R.Policy.Degrade
              (Polybench.gemm 16)
          with
          | exception R.Error.Error e ->
              Alcotest.(check string)
                (name ^ " aborts even when degrading")
                "POM300" e.R.Error.code
          | _ -> Alcotest.failf "required pass %s must not be skipped" name))
    required_passes

let test_fault_matrix_abort_policy () =
  (* the default policy turns any guarded failure into the typed error *)
  with_faults "pass:lint-pragmas=fail@1" (fun () ->
      match Pom.compile ~framework:`Baseline (Polybench.gemm 16) with
      | exception R.Error.Error e ->
          Alcotest.(check string) "POM300 under abort" "POM300" e.R.Error.code;
          Alcotest.(check (option string))
            "failing pass recorded"
            (Some "lint-pragmas") e.R.Error.pass
      | _ -> Alcotest.fail "expected the typed abort")

let test_fault_timeout_degrades_to_pom301 () =
  with_faults "pass:legality-check=timeout@1" (fun () ->
      let c =
        Pom.compile ~framework:`Baseline ~on_error:R.Policy.Degrade
          (Polybench.gemm 16)
      in
      Alcotest.(check bool) "timeout surfaces as POM301" true
        (List.exists
           (fun (d : Pom_analysis.Diagnostic.t) ->
             d.Pom_analysis.Diagnostic.code = "POM301")
           c.Pom.diags))

let test_fault_kill_is_never_absorbed () =
  with_faults "pass:lint-pragmas=kill@1" (fun () ->
      match
        Pom.compile ~framework:`Baseline ~on_error:R.Policy.Degrade
          (Polybench.gemm 16)
      with
      | exception R.Fault.Killed _ -> ()
      | _ -> Alcotest.fail "a kill must unwind even under degrade")

(* -------- faults during the DSE searches -------- *)

(* Under --on-error degrade, a fault that strikes once a search has its
   first evaluation must never abort the compile: a failing candidate is
   skipped (POM304) and a timeout stops the search at the incumbent.
   Whether the k-th projection comes that late is measured with a kill:
   with "dse:evaluate=kill@1" armed next to the fault, the compile dies at
   the first evaluation only if fault k has not fired yet.  The same
   compile with a kill at the pass after the search then has to reach
   that pass: the dependence memo only grows between the two compiles,
   which can only move a fault later. *)
let compile_outcome framework func spec =
  with_faults spec (fun () ->
      match
        Pom.compile ~framework ~on_error:R.Policy.Degrade func
      with
      | c -> `Compiled c
      | exception R.Fault.Killed site -> `Killed site
      | exception R.Error.Error e -> `Aborted e)

let test_search_faults_degrade () =
  let func = Polybench.bicg 64 in
  List.iter
    (fun (framework, name) ->
      let late = ref 0 and traced = ref false in
      List.iter
        (fun kind ->
          List.iter
            (fun k ->
              let fault = Printf.sprintf "poly:fm-projection=%s@%d" kind k in
              match
                compile_outcome framework func
                  (fault ^ ",dse:evaluate=kill@1")
              with
              | `Killed "dse:evaluate" -> (
                  incr late;
                  (match
                     compile_outcome framework func
                       (fault ^ ",pass:legality-check=kill@1")
                   with
                  | `Killed _ -> ()
                  | `Aborted e ->
                      Alcotest.failf
                        "%s: %s after the first evaluation aborted the \
                         compile: %s"
                        name fault (R.Error.to_string e)
                  | `Compiled _ ->
                      Alcotest.failf
                        "%s: %s: the pass after the search never ran" name
                        fault);
                  (* both searches trace what they absorbed *)
                  if kind = "fail" && not !traced then
                    match compile_outcome framework func fault with
                    | `Compiled c ->
                        traced := List.exists (contains ~sub:"POM304") c.Pom.trace
                    | `Killed _ | `Aborted _ -> ())
              | `Killed _ | `Aborted _ | `Compiled _ ->
                  (* fired while the search was set up: may abort *)
                  ())
            (List.init 40 (fun i -> 5 * (i + 1))))
        [ "fail"; "timeout" ];
      Alcotest.(check bool) (name ^ ": some faults strike the search") true
        (!late > 0);
      Alcotest.(check bool)
        (name ^ ": a failed candidate is traced as POM304")
        true !traced)
    [ (`Pom_auto, "pom"); (`Scalehls, "scalehls") ]

(* A Stage-2 search that runs out of budget ends that iteration at the
   incumbent: the budget line is the last [iter] line of the trace, with
   no further step priced and no unit dropped after it. *)
let test_budget_ends_the_iteration () =
  List.iter
    (fun (name, func) ->
      match compile_outcome `Pom_auto func "dse:evaluate=timeout@7" with
      | `Compiled c -> (
          let iters =
            List.filter
              (fun l -> String.starts_with ~prefix:"iter " l)
              c.Pom.trace
          in
          match List.rev iters with
          | last :: _ ->
              Alcotest.(check bool)
                (name ^ ": the budget line is the last iter line")
                true
                (contains ~sub:"budget exhausted" last)
          | [] -> Alcotest.failf "%s: no search iterations traced" name)
      | `Killed site -> Alcotest.failf "%s: killed at %s" name site
      | `Aborted e ->
          Alcotest.failf "%s: aborted: %s" name (R.Error.to_string e))
    [
      ("3mm", Polybench.mm3 256); ("resnet18", Pom_workloads.Dnn.resnet18 ());
    ]

(* -------- deadline acceptance -------- *)

let test_deadline_aborts_cleanly () =
  (* an effectively-zero deadline on a large kernel: the compile must exit
     with the typed budget diagnostic, not hang or crash *)
  match
    Pom.compile ~framework:`Pom_auto ~deadline_s:1e-4
      (Polybench.gemm 256)
  with
  | exception R.Error.Error e ->
      Alcotest.(check string) "typed budget abort" "POM301" e.R.Error.code
  | exception R.Budget.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "expected the deadline to abort the compile"

(* -------- checkpoint kill-and-resume acceptance -------- *)

let test_checkpoint_kill_and_resume () =
  let module Engine = Pom_dse.Engine in
  let func = Polybench.gemm 32 in
  (* ground truth: one uninterrupted search, counting its syntheses *)
  let syntheses f =
    let n0 = Pom_hls.Report.synth_count () in
    let v = f () in
    (v, Pom_hls.Report.synth_count () - n0)
  in
  let full, full_synths =
    syntheses (fun () -> (Engine.run func).Engine.result)
  in
  Alcotest.(check bool) "search long enough to kill mid-way" true
    (full.Pom_dse.Stage2.evaluations > 4);
  let path = Filename.temp_file "pom_dse" ".jrnl" in
  Sys.remove path;
  (* the same search, checkpointed, killed on its 4th sequential
     evaluation — simulating the process dying mid-DSE *)
  R.Fault.configure "dse:evaluate=kill@4";
  (match Engine.run ~checkpoint:path func with
  | exception R.Fault.Killed site ->
      Alcotest.(check string) "died at the evaluation site" "dse:evaluate"
        site
  | _ -> Alcotest.fail "expected the injected kill to unwind");
  R.Fault.reset ();
  Alcotest.(check bool) "journal survived the kill" true
    (Sys.file_exists path);
  (* resume: the journal serves the evaluated points, and the search
     re-derives the identical final design *)
  let resumed, resumed_synths =
    syntheses (fun () -> (Engine.run ~checkpoint:path func).Engine.result)
  in
  Alcotest.(check bool) "identical directives" true
    (full.Pom_dse.Stage2.directives = resumed.Pom_dse.Stage2.directives);
  Alcotest.(check bool) "identical tile vectors" true
    (full.Pom_dse.Stage2.tile_vectors = resumed.Pom_dse.Stage2.tile_vectors);
  Alcotest.(check int) "identical latency"
    full.Pom_dse.Stage2.report.Pom_hls.Report.latency
    resumed.Pom_dse.Stage2.report.Pom_hls.Report.latency;
  Alcotest.(check bool) "identical report" true
    (full.Pom_dse.Stage2.report = resumed.Pom_dse.Stage2.report);
  (* the resumed run actually used the journal: some of its evaluations
     were served by replay instead of a synthesis *)
  Alcotest.(check bool) "resume replayed journaled work" true
    (resumed_synths < full_synths);
  Sys.remove path

(* A journal record is keyed by a digest of its design point, not by the
   point's printed fingerprint. *)
let test_journal_keys_are_digests () =
  let path = Filename.temp_file "pom_resnet18" ".jrnl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ignore (Pom_dse.Engine.run ~checkpoint:path (Pom_workloads.Dnn.resnet18 ()));
      let j, records, _ = R.Checkpoint.load Pom_hls.Wirec.report path in
      Option.iter R.Checkpoint.close j;
      Alcotest.(check bool) "the search journaled its points" true
        (List.length records > 1);
      List.iter
        (fun (key, _) -> Alcotest.(check int) "key bytes" 16 (String.length key))
        records)

(* The ScaleHLS ladder keeps the same journal protocol, and a resumed
   compile traces the replay as Stage 2's does. *)
let test_scalehls_kill_and_resume () =
  let func = Polybench.mm2 32 in
  let full = Pom.compile ~framework:`Scalehls func in
  let path = Filename.temp_file "pom_scalehls" ".jrnl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match
         with_faults "dse:evaluate=kill@4" (fun () ->
             Pom.compile ~framework:`Scalehls ~checkpoint:path func)
       with
      | exception R.Fault.Killed site ->
          Alcotest.(check string) "died at the evaluation site"
            "dse:evaluate" site
      | _ -> Alcotest.fail "expected the injected kill to unwind");
      let resumed = Pom.compile ~framework:`Scalehls ~checkpoint:path func in
      Alcotest.(check bool) "resume traced the replay" true
        (List.exists (contains ~sub:"checkpoint: replayed") resumed.Pom.trace);
      Alcotest.(check bool) "identical report" true
        (full.Pom.report = resumed.Pom.report);
      Alcotest.(check string) "identical HLS C" full.Pom.hls_c
        resumed.Pom.hls_c)

(* -------- client retry/backoff -------- *)

module Retry = Pom.Resilience.Retry

exception Transient

exception Fatal

let fast_policy = { Retry.retries = 3; base_s = 0.001 }

(* The schedule is a pure function of (policy, attempt): the base delay,
   doubling per retry, capped at 2 s. *)
let test_retry_backoff_doubles_and_caps () =
  Alcotest.(check (list (float 1e-12)))
    "0.1 s doubling, capped at 2 s"
    [ 0.1; 0.2; 0.4; 0.8; 1.6; 2.0; 2.0 ]
    (List.init 7 (fun i -> Retry.backoff_s Retry.default ~attempt:(i + 1)))

let test_retry_succeeds_after_transients () =
  let calls = ref 0 and observed = ref [] in
  let v =
    Retry.run ~policy:fast_policy
      ~on_retry:(fun ~attempt ~delay_s:_ _ -> observed := attempt :: !observed)
      ~retry_on:(function Transient -> true | _ -> false)
      (fun () ->
        incr calls;
        if !calls < 3 then raise Transient;
        !calls * 10)
  in
  Alcotest.(check int) "third attempt succeeded" 30 v;
  Alcotest.(check (list int)) "each scheduled retry observed" [ 2; 1 ]
    !observed

let test_retry_exhaustion_reraises_last () =
  let calls = ref 0 in
  match
    Retry.run ~policy:fast_policy
      ~retry_on:(function Transient -> true | _ -> false)
      (fun () ->
        incr calls;
        raise Transient)
  with
  | _ -> Alcotest.fail "retry loop returned on a permanent failure"
  | exception Transient ->
      Alcotest.(check int) "retries + 1 attempts" (fast_policy.Retry.retries + 1)
        !calls

let test_retry_rejects_non_transient () =
  let calls = ref 0 in
  match
    Retry.run ~policy:fast_policy
      ~retry_on:(function Transient -> true | _ -> false)
      (fun () ->
        incr calls;
        raise Fatal)
  with
  | _ -> Alcotest.fail "fatal exception was swallowed"
  | exception Fatal -> Alcotest.(check int) "no retry on fatal" 1 !calls

(* The backoff must never overshoot the caller's deadline: when the next
   sleep does not fit, the loop gives up immediately. *)
let test_retry_deadline_bounds_sleeps () =
  let slow = { Retry.retries = 50; base_s = 0.5 } in
  let calls = ref 0 in
  let t0 = Unix.gettimeofday () in
  (match
     Retry.run ~policy:slow ~deadline_s:0.2
       ~retry_on:(function Transient -> true | _ -> false)
       (fun () ->
         incr calls;
         raise Transient)
   with
  | _ -> Alcotest.fail "unreachable"
  | exception Transient -> ());
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "gave up inside the deadline (%.3f s)" dt)
    true (dt < 0.5);
  Alcotest.(check bool) "at most a couple of attempts fit" true (!calls <= 2)

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "no-op without install" `Quick
            test_budget_noop_without_install;
          Alcotest.test_case "external cancel" `Quick test_budget_cancel;
        ] );
      ("policy", [ Alcotest.test_case "parse and scope" `Quick test_policy_parse ]);
      ( "fault injection",
        [
          Alcotest.test_case "spec and arming" `Quick test_fault_spec;
          Alcotest.test_case "kinds" `Quick test_fault_kinds;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip and torn tail" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "fsync_each replay" `Quick
            test_checkpoint_fsync_each;
          Alcotest.test_case "journal keys are digests" `Quick
            test_journal_keys_are_digests;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "fault matrix (degrade)" `Quick
            test_fault_matrix_degrade;
          Alcotest.test_case "fault matrix (abort)" `Quick
            test_fault_matrix_abort_policy;
          Alcotest.test_case "timeout becomes POM301" `Quick
            test_fault_timeout_degrades_to_pom301;
          Alcotest.test_case "search faults never abort" `Quick
            test_search_faults_degrade;
          Alcotest.test_case "budget ends the search iteration" `Quick
            test_budget_ends_the_iteration;
          Alcotest.test_case "kill is never absorbed" `Quick
            test_fault_kill_is_never_absorbed;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff doubles and caps" `Quick
            test_retry_backoff_doubles_and_caps;
          Alcotest.test_case "succeeds after transients" `Quick
            test_retry_succeeds_after_transients;
          Alcotest.test_case "exhaustion re-raises the last failure" `Quick
            test_retry_exhaustion_reraises_last;
          Alcotest.test_case "non-transient propagates immediately" `Quick
            test_retry_rejects_non_transient;
          Alcotest.test_case "deadline bounds the schedule" `Quick
            test_retry_deadline_bounds_sleeps;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "deadline aborts cleanly" `Slow
            test_deadline_aborts_cleanly;
          Alcotest.test_case "checkpoint kill-and-resume" `Slow
            test_checkpoint_kill_and_resume;
          Alcotest.test_case "scalehls kill-and-resume" `Slow
            test_scalehls_kill_and_resume;
        ] );
    ]
