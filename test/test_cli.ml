(* Exit-code contract of the pom_compile driver: 0 success, 1 usage errors
   (command-line parse errors included), 2 analyzer/legality failures, 3
   typed resilience failures.  The
   driver binary is a declared dune dependency, so the tests run against
   the freshly built executable. *)

(* the driver lives next to this test in the build tree, so resolve it from
   the test binary itself and stay independent of the runner's cwd *)
let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "pom_compile.exe"))

let run args = Sys.command (exe ^ " " ^ args ^ " > /dev/null 2> /dev/null")

(* [run] that also returns what pom_compile printed on [stream] *)
let run_capture stream args =
  let file = Filename.temp_file "pom_cli" ".out" in
  let redirect =
    match stream with
    | `Stdout -> " > " ^ Filename.quote file ^ " 2> /dev/null"
    | `Stderr -> " > /dev/null 2> " ^ Filename.quote file
  in
  let code = Sys.command (exe ^ " " ^ args ^ redirect) in
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (code, text)

let run_stderr = run_capture `Stderr

let contains text sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

let test_success () =
  Alcotest.(check int) "clean manual compile" 0
    (run "-w gemm -s 32 -f pom-manual");
  Alcotest.(check int) "lint warnings alone do not fail the build" 0
    (run "-w gemm -s 32 -f pom-manual --schedule \"pipeline s k 1\" --lint")

let test_usage_errors () =
  Alcotest.(check int) "unknown workload" 1 (run "-w no-such-kernel");
  Alcotest.(check int) "unknown framework" 1 (run "-w gemm -f no-such-flow");
  Alcotest.(check int) "malformed schedule" 1
    (run "-w gemm -f pom-manual --schedule \"pipeline s\"");
  (* command-line parse errors, including flags of retired scheduler
     modes, of the retired DSE journal and of the retired per-pass
     legality re-check that old scripts may still pass *)
  Alcotest.(check int) "unknown flag" 1 (run "-w gemm --bogus-flag");
  Alcotest.(check int) "--jobs-mode" 1 (run "-w gemm --jobs-mode procs");
  Alcotest.(check int) "--chunk" 1 (run "-w gemm --chunk 8");
  Alcotest.(check int) "--checkpoint" 1 (run "-w gemm -s 32 --checkpoint x");
  Alcotest.(check int) "--verify-each" 1 (run "-w gemm -s 32 --verify-each");
  (* a directive a Schedule constructor or the workload's loops reject (a
     dimension the compute lacks, a new name it already has), named by its
     message, on the local path and before connecting *)
  List.iter
    (fun (directive, message) ->
      List.iter
        (fun (path, extra) ->
          let code, err =
            run_stderr
              (Printf.sprintf "-w gemm -s 8 -f pom-manual --schedule %S%s"
                 directive extra)
          in
          let where = Printf.sprintf "%s, %s" directive path in
          Alcotest.(check int) (where ^ ": exit code") 1 code;
          Alcotest.(check string) (where ^ ": message") (message ^ "\n") err)
        [ ("local", ""); ("--connect", " --connect /nonexistent/pom.sock") ])
    [
      ("split s k 1 ko ki", "Schedule.split: factor must exceed 1");
      ("split s k 0 ko ki", "Schedule.split: factor must exceed 1");
      ("unroll s k 0", "Schedule.unroll: factor must be positive");
      ("pipeline s k 0", "Schedule.pipeline: II must be at least 1");
      ("unroll s zz 2", "s: dimension zz not in schedule");
      ("split s k 8 i ki", "s: dimension i already exists");
      ("reverse s k k", "s: dimension k already exists");
    ]

(* Numeric options must be rejected up front with a clear usage error,
   never clamped or passed through.  The compiler runs on one thread, so
   --jobs accepts only 1. *)
let test_bad_numeric_options () =
  Alcotest.(check int) "--jobs 0" 1 (run "-w gemm -j 0");
  Alcotest.(check int) "--jobs negative" 1 (run "-w gemm --jobs=-2");
  Alcotest.(check int) "--jobs not a number" 1 (run "-w gemm -j abc");
  Alcotest.(check int) "--jobs 2" 1 (run "-w gemm -j 2");
  Alcotest.(check int) "--jobs above the domain limit" 1 (run "-w gemm -j 129");
  Alcotest.(check int) "--size negative" 1 (run "-w gemm --size=-5");
  Alcotest.(check int) "--deadline 0" 1 (run "-w gemm --deadline=0");
  Alcotest.(check int) "--deadline negative" 1 (run "-w gemm --deadline=-1.5");
  Alcotest.(check int) "--queue 0" 1 (run "--serve /tmp/unused.sock --queue=0");
  Alcotest.(check int) "--resource-fraction 0" 1
    (run "-w gemm --resource-fraction=0");
  (* retry knobs: zero or negative would mean "never try" / busy-loop *)
  Alcotest.(check int) "--retries 0" 1 (run "-w gemm --retries=0");
  Alcotest.(check int) "--retries negative" 1 (run "-w gemm --retries=-1");
  Alcotest.(check int) "--retry-backoff 0" 1 (run "-w gemm --retry-backoff=0");
  Alcotest.(check int) "--retry-backoff negative" 1
    (run "-w gemm --retry-backoff=-0.5")

let test_analysis_failures () =
  Alcotest.(check int) "--Werror promotes the analyzer warning" 2
    (run "-w gemm -s 32 -f pom-manual --schedule \"pipeline s k 1\" --Werror");
  Alcotest.(check int) "illegal schedule (reversed dependences)" 2
    (run "-w seidel -s 16 -f pom-manual --schedule \"interchange s t j\"");
  (* a malformed partition is the analyzer's error, not a lowering crash:
     it is not applied, like one naming an array no compute accesses *)
  List.iter
    (fun (directive, message) ->
      let code, err =
        run_stderr
          (Printf.sprintf "-w gemm -s 8 -f pom-manual --schedule %S" directive)
      in
      Alcotest.(check int) (directive ^ ": exit code") 2 code;
      Alcotest.(check bool) (directive ^ ": POM207 printed") true
        (contains err message))
    [
      ( "partition A cyclic 2",
        "POM207 error [gemm/array A]: partition has 1 factors for a rank-2 \
         array" );
      ( "partition Z cyclic 2 2",
        "POM207 error [gemm/array Z]: partition directive names an array no \
         compute accesses" );
    ];
  (* a partition that does not apply is not priced either: the report is
     the one the same compile gives without the directive *)
  let code, out =
    run_capture `Stdout
      "-w gemm -s 8 -f pom-manual --schedule \"partition A cyclic 2\""
  in
  Alcotest.(check int) "unapplied partition: exit code" 2 code;
  Alcotest.(check bool) "unapplied partition: priced unpartitioned" true
    (contains out "DSP 5, LUT 2425, FF 1498, BRAM18 3,");
  (* a factor below 1 does not apply either: no pragma is emitted for the
     array, the price is the unpartitioned one, and only the linter's
     POM207 reports it (the emitted design has nothing for the IR
     verifier's POM106 to find) *)
  let code, out =
    run_capture `Stdout
      "-w gemm -s 8 -f pom-manual --schedule \"partition A cyclic 0 4\" \
       --emit-c"
  in
  Alcotest.(check int) "non-positive factor: exit code" 2 code;
  Alcotest.(check bool) "non-positive factor: priced unpartitioned" true
    (contains out "DSP 5, LUT 2425, FF 1498, BRAM18 3,");
  Alcotest.(check bool) "non-positive factor: no pragma for A" false
    (contains out "variable=A");
  let _, err =
    run_stderr
      "-w gemm -s 8 -f pom-manual --schedule \"partition A cyclic 0 4\""
  in
  Alcotest.(check bool) "non-positive factor: POM207, no POM106" true
    (contains err "POM207" && not (contains err "POM106"))

(* A failure anywhere in a compile — the speedup baseline, which profiles
   the input before any pass runs, included — exits 3 with the typed
   error under either policy, never as an uncaught exception. *)
let test_resilience_failures () =
  List.iter
    (fun framework ->
      List.iter
        (fun policy ->
          List.iter
            (fun k ->
              Alcotest.(check int)
                (Printf.sprintf "%s, --on-error %s, projection %d fails"
                   framework policy k)
                3
                (run
                   (Printf.sprintf
                      "-w bicg -s 256 -f %s -j 1 --on-error %s --inject \
                       poly:fm-projection=fail@%d"
                      framework policy k)))
            [ 1; 3 ])
        [ "abort"; "degrade" ])
    [ "baseline"; "pluto"; "polsca"; "scalehls"; "pom-manual"; "pom" ]

(* A fraction scales the device budget down; above 1 it would ask for more
   resources than the device has, which is a usage error like any other
   out-of-range number, not an uncaught exception. *)
let test_resource_fraction_range () =
  Alcotest.(check int) "--resource-fraction 2" 1
    (run "-w gemm -s 64 --resource-fraction 2");
  Alcotest.(check int) "--resource-fraction 1.5" 1
    (run "-w gemm -s 64 --resource-fraction=1.5");
  Alcotest.(check int) "--resource-fraction 1 (whole device)" 0
    (run "-w gemm -s 32 -f pom-manual --resource-fraction 1")

(* Under --on-error degrade a legality proof that runs out of budget
   rejects the schedule with a POM301 error diagnostic (exit 2) that names
   the timeout; it reports no reversed dependences, since none were
   found. *)
let test_legality_timeout_named () =
  let code, err =
    run_stderr
      "-w gemm -s 256 -f pom -j 1 --inject legality:pair=timeout@1 \
       --on-error degrade"
  in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "names the timeout" true (contains err "timed out");
  Alcotest.(check bool) "no reversed-dependence count" false
    (contains err "reversed dependences")

(* Under --on-error degrade a legality proof that fails rejects the
   schedule as a timed-out one does: an unproven schedule is never passed
   as legal.  Seidel under pluto reverses two dependences, so a skipped
   proof would exit 0 with an illegal design. *)
let test_legality_failure_rejects () =
  List.iter
    (fun fault ->
      let code, err =
        run_stderr
          ("-w seidel -s 256 -f pluto --on-error degrade --check-legality \
            --inject " ^ fault)
      in
      Alcotest.(check int) (fault ^ ": exit code") 2 code;
      Alcotest.(check bool) (fault ^ ": names the rejection") true
        (contains err "POM300 error [legality-check"
        && contains err "the schedule is rejected"))
    [ "legality:pair=fail@1"; "pass:legality-check=fail@1" ]

(* A --from-c kernel's sizes are the C source's own, so the workload and
   validation lines name the file, not the -s default, on the local and
   the --connect paths alike. *)
let test_from_c_names_the_file () =
  let path =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../../../examples/kernels/trmm.c"
  in
  let code, out =
    run_capture `Stdout
      ("--from-c " ^ Filename.quote path ^ " -f pom --validate")
  in
  Alcotest.(check int) "local: exit code" 0 code;
  Alcotest.(check bool) "local: workload line" true
    (contains out (Printf.sprintf "workload:    trmm (%s)\n" path));
  Alcotest.(check bool) "local: validation line" true
    (contains out (Printf.sprintf "validation:  max divergence 0 (%s)\n" path));
  let code, out =
    run_capture `Stdout
      ("--from-c " ^ Filename.quote path
     ^ " -f pom --connect /nonexistent/pom.sock --retries 1 --retry-backoff \
        0.01")
  in
  Alcotest.(check int) "--connect: exit code" 0 code;
  Alcotest.(check bool) "--connect: workload line" true
    (contains out (Printf.sprintf "workload:    trmm (%s)\n" path))

(* A size too small for a workload leaves a loop with no iterations.  That
   is a usage error naming the workload and the size, on the local and the
   --connect paths, never an uncaught exception or a failed compile; the
   smallest sizes that do have iterations still compile. *)
let test_size_too_small () =
  let stencils =
    [
      "jacobi-1d"; "jacobi-2d"; "heat-1d"; "seidel"; "edge-detect"; "gaussian";
      "blur";
    ]
  in
  List.iter
    (fun (w, size, framework) ->
      let code, err =
        run_stderr (Printf.sprintf "-w %s -s %d -f %s -j 1" w size framework)
      in
      let where = Printf.sprintf "%s -s %d -f %s" w size framework in
      Alcotest.(check int) (where ^ ": exit code") 1 code;
      Alcotest.(check bool) (where ^ ": names the workload and size") true
        (contains err
           (Printf.sprintf "size %d is too small for workload %s" size w)))
    (List.concat_map (fun w -> [ (w, 1, "pom"); (w, 2, "pom") ]) stencils
    @ [ ("trmm", 1, "pom"); ("trmm", 1, "scalehls"); ("trmm", 1, "baseline") ]);
  Alcotest.(check int) "--connect: checked before connecting" 1
    (run "-w jacobi-1d -s 2 -j 1 --connect /nonexistent/pom.sock");
  List.iter
    (fun (w, size) ->
      Alcotest.(check int) (Printf.sprintf "%s -s %d compiles" w size) 0
        (run (Printf.sprintf "-w %s -s %d -j 1" w size)))
    (("trmm", 2) :: List.map (fun w -> (w, 3)) stencils)

(* The cycle model counts in native ints.  A problem size whose cycle
   count does not fit is a typed failure of the speedup baseline (POM300,
   exit 3) on the local and the --connect paths, never a wrapped-around
   negative latency; a size that fits still compiles to the pinned
   design. *)
let test_cycle_count_overflow () =
  let code, out = run_capture `Stdout "-w gemm -s 100000 -f pom" in
  Alcotest.(check int) "gemm -s 100000 exit code" 0 code;
  Alcotest.(check bool) "gemm -s 100000 speedup" true
    (contains out "speedup:     512.0x");
  List.iter
    (fun size ->
      let code, err = run_stderr (Printf.sprintf "-w gemm -s %d -f pom" size) in
      let where = Printf.sprintf "gemm -s %d" size in
      Alcotest.(check int) (where ^ ": exit code") 3 code;
      Alcotest.(check bool) (where ^ ": POM300 at baseline-latency") true
        (contains err "POM300" && contains err "baseline-latency"))
    [ 1_000_000; 2_000_000 ];
  Alcotest.(check int) "--connect: the local fallback fails the same way" 3
    (run
       "-w gemm -s 1000000 -f pom --connect /nonexistent/pom.sock \
        --retries 1 --retry-backoff 0.01")

(* Analyzer diagnostics survive --connect: a request the server cannot
   reach falls back to a local compile, which prints the errors (and,
   under --lint or --Werror, the warnings) and exits 2 exactly as a plain
   local compile does. *)
let test_connect_diagnostics () =
  let fallback =
    " -j 1 --connect /nonexistent/pom.sock --retries 1 --retry-backoff 0.01"
  in
  List.iter
    (fun (what, args, code, sub) ->
      List.iter
        (fun (path, extra) ->
          let got, err = run_stderr (args ^ extra) in
          let where = Printf.sprintf "%s, %s" what path in
          Alcotest.(check int) (where ^ ": exit code") code got;
          Alcotest.(check bool) (where ^ ": prints " ^ sub) true
            (contains err sub))
        [ ("local", ""); ("fallback", fallback) ])
    [
      ( "analyzer error",
        "-w gemm -s 64 -f pom-manual --schedule \"partition A cyclic 0 4\"",
        2,
        "POM207" );
      ( "--Werror",
        "-w gemm -s 32 -f pom-manual --schedule \"pipeline s k 1\" --Werror",
        2,
        "analysis:" );
      ( "--lint",
        "-w gemm -s 32 -f pom-manual --schedule \"pipeline s k 1\" --lint",
        0,
        "analysis:" );
    ]

(* The daemon compiles under its own defaults and returns a fixed subset
   of the artifact, so a flag only a local compile honours is a usage
   error with --connect, named and caught before connecting.  The socket
   does not exist: a dropped flag would fall back to a local compile and
   exit 0. *)
let test_connect_local_only_flags () =
  let connect =
    "-w gemm -s 32 -f pom-manual -j 1 --connect /nonexistent/pom.sock \
     --retries 1 --retry-backoff 0.01"
  in
  List.iter
    (fun (flag, arg) ->
      let code, err = run_stderr (String.concat " " [ connect; flag; arg ]) in
      Alcotest.(check int) (flag ^ ": usage error") 1 code;
      Alcotest.(check bool) (flag ^ ": named") true (contains err flag))
    [
      ("--timing", "");
      ("--dump-after", "all");
      ("--validate", "");
      ("--check-legality", "");
      ("--timeline", "");
      ("--emit-mlir", "");
      ("--emit-testbench", "");
      ("--on-error", "degrade");
    ];
  Alcotest.(check int) "--on-error abort is the daemon's own policy" 0
    (run (connect ^ " --on-error abort"))

(* A daemon of another protocol generation cannot answer a status
   request: --server-stats and --stop name the skew (POM309) and exit 1
   instead of dying on an uncaught exception.  The stand-in daemon reads
   the request and answers with the previous generation's header. *)
let test_status_version_skew () =
  let module Frame = Pom_wire.Frame in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pom-cli-%d.sock" (Unix.getpid ()))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 1;
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Sys.remove socket)
  @@ fun () ->
  List.iter
    (fun flag ->
      let answer () =
        let c, _ = Unix.accept ~cloexec:true fd in
        ignore (Unix.read c (Bytes.create 4096) 0 4096);
        let oc = Unix.out_channel_of_descr c in
        Frame.output_header oc
          {
            Frame.kind = Pom_server.Protocol.response_kind;
            version = Pom_server.Protocol.version - 1;
          };
        close_out oc
      in
      let daemon = Thread.create answer () in
      let code, err = run_stderr (flag ^ " " ^ socket) in
      Thread.join daemon;
      Alcotest.(check int) (flag ^ ": exit 1") 1 code;
      Alcotest.(check bool) (flag ^ ": names POM309") true
        (contains err "POM309"))
    [ "--server-stats"; "--stop" ]

(* Both searches are deterministic, so a compile killed mid-search
   recovers by running again: the killed process exits 3 naming the kill
   site, and a fresh process prints the design an uninterrupted run
   prints. *)
let test_kill_then_rerun () =
  let design out =
    List.filter
      (fun line ->
        List.exists
          (fun prefix -> String.starts_with ~prefix line)
          [ "report:"; "speedup:"; "tiles " ])
      (String.split_on_char '\n' out)
  in
  List.iter
    (fun framework ->
      let args = "-w resnet18 -f " ^ framework in
      let code, uninterrupted = run_capture `Stdout args in
      Alcotest.(check int) (framework ^ ": uninterrupted exit code") 0 code;
      Alcotest.(check bool) (framework ^ ": a design is printed") true
        (List.length (design uninterrupted) > 2);
      let code, err = run_stderr (args ^ " --inject dse:evaluate=kill@30") in
      Alcotest.(check int) (framework ^ ": killed exit code") 3 code;
      Alcotest.(check string) (framework ^ ": names the kill")
        "error [POM305]: injected kill at dse:evaluate\n" err;
      let code, rerun = run_capture `Stdout args in
      Alcotest.(check int) (framework ^ ": rerun exit code") 0 code;
      Alcotest.(check (list string))
        (framework ^ ": the rerun's design")
        (design uninterrupted) (design rerun))
    [ "pom"; "scalehls" ]

(* A --dump-after name that no pass of the compile carries only warns:
   the compile succeeds, and the warning lists the names of the flow's own
   passes, sorted. *)
let test_dump_after_unknown () =
  List.iter
    (fun (framework, known) ->
      let code, err =
        run_stderr
          (Printf.sprintf "-w gemm -s 64 -f %s --dump-after nosuch" framework)
      in
      Alcotest.(check int) (framework ^ ": exit code") 0 code;
      Alcotest.(check string)
        (framework ^ ": the warning")
        ("warning: --dump-after nosuch matches no registered pass (known: "
       ^ known ^ ")\n")
        err)
    [
      ( "pom",
        "affine-lower, affine-simplify, emit-hls-c, hls-synthesize, \
         legality-check, lint-pragmas, stage1-transform, stage2-search, \
         verify-ir" );
      ( "pluto",
        "affine-lower, affine-simplify, emit-hls-c, hls-synthesize, \
         legality-check, lint-pragmas, pluto-locality-tiling, \
         schedule-apply, structural-directives, verify-ir" );
    ]

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "success" `Quick test_success;
          Alcotest.test_case "usage errors" `Quick test_usage_errors;
          Alcotest.test_case "bad numeric options" `Quick
            test_bad_numeric_options;
          Alcotest.test_case "analysis failures" `Quick test_analysis_failures;
          Alcotest.test_case "resilience failures" `Quick
            test_resilience_failures;
          Alcotest.test_case "resource fraction range" `Quick
            test_resource_fraction_range;
          Alcotest.test_case "legality timeout named" `Quick
            test_legality_timeout_named;
          Alcotest.test_case "legality failure rejects" `Quick
            test_legality_failure_rejects;
          Alcotest.test_case "--from-c names the file" `Quick
            test_from_c_names_the_file;
          Alcotest.test_case "size too small" `Quick test_size_too_small;
          Alcotest.test_case "cycle count overflow" `Quick
            test_cycle_count_overflow;
          Alcotest.test_case "--connect diagnostics" `Quick
            test_connect_diagnostics;
          Alcotest.test_case "--connect local-only flags" `Quick
            test_connect_local_only_flags;
          Alcotest.test_case "status version skew" `Quick
            test_status_version_skew;
          Alcotest.test_case "--dump-after unknown pass" `Quick
            test_dump_after_unknown;
          Alcotest.test_case "killed search recovers by rerun" `Quick
            test_kill_then_rerun;
        ] );
    ]
