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
     modes that old scripts may still pass *)
  Alcotest.(check int) "unknown flag" 1 (run "-w gemm --bogus-flag");
  Alcotest.(check int) "--jobs-mode" 1 (run "-w gemm --jobs-mode procs");
  Alcotest.(check int) "--chunk" 1 (run "-w gemm --chunk 8")

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
    (run "-w seidel -s 16 -f pom-manual --schedule \"interchange s t j\"")

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
   rejects the schedule (POM302, exit 2).  The violation count is then a
   sentinel, so the verdict line names the timeout instead of reporting
   reversed dependences. *)
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
          Alcotest.test_case "size too small" `Quick test_size_too_small;
          Alcotest.test_case "cycle count overflow" `Quick
            test_cycle_count_overflow;
        ] );
    ]
