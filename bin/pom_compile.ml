(* pom_compile: compile a built-in workload through a chosen framework and
   print the virtual synthesis report (and optionally the HLS C). *)

open Cmdliner

let workloads () =
  List.map
    (fun (n, f) -> (n, fun size -> f size))
    Pom.Workloads.Polybench.by_name
  @ List.map (fun (n, f) -> (n, fun size -> f size)) Pom.Workloads.Image.by_name
  @ List.map
      (fun (n, f) -> (n, fun _ -> f ()))
      Pom.Workloads.Dnn.by_name

(* --schedule "pipeline s k 1" etc.: whitespace-separated primitive syntax
   mirroring Table II, applied to the workload before compiling.  Lets the
   analyzer be demonstrated on directives no built-in workload ships. *)
let directive_of_string s =
  let int_of what v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> failwith (Printf.sprintf "%s expects an integer, got %s" what v)
  in
  match String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "") with
  | [ "interchange"; c; d1; d2 ] -> Pom.Dsl.Schedule.interchange c d1 d2
  | [ "split"; c; d; f; o; i ] ->
      Pom.Dsl.Schedule.split c d (int_of "split" f) o i
  | [ "reverse"; c; d; nd ] -> Pom.Dsl.Schedule.reverse c d nd
  | [ "pipeline"; c; d; ii ] -> Pom.Dsl.Schedule.pipeline c d (int_of "pipeline" ii)
  | [ "unroll"; c; d; f ] -> Pom.Dsl.Schedule.unroll c d (int_of "unroll" f)
  | "partition" :: a :: kind :: factors when factors <> [] ->
      let kind =
        match kind with
        | "cyclic" -> Pom.Dsl.Schedule.Cyclic
        | "block" -> Pom.Dsl.Schedule.Block
        | "complete" -> Pom.Dsl.Schedule.Complete
        | k -> failwith ("unknown partition kind " ^ k)
      in
      Pom.Dsl.Schedule.partition a (List.map (int_of "partition") factors) kind
  | _ ->
      failwith
        (Printf.sprintf
           "cannot parse directive %S (try e.g. \"pipeline s k 1\", \"unroll \
            s j 4\", \"split s k 8 ko ki\", \"interchange s i j\", \"reverse \
            s k kr\", \"partition A cyclic 4 4\")"
           s)

(* POM307: print the offending source line with a caret under the column,
   compiler-style, so C front-end errors are actionable. *)
let report_parse_error path ~line ~col ~token message =
  Printf.eprintf "%s:%d:%d: error [POM307]: %s (at %s)\n" path line col
    message token;
  (try
     let ic = open_in path in
     Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () ->
         let src = ref "" in
         for _ = 1 to line do
           src := input_line ic
         done;
         Printf.eprintf "  %s\n  %s^\n" !src (String.make (col - 1) ' '))
   with _ -> ());
  exit 1

(* Usage-error contract: a nonsensical numeric option is rejected up
   front with exit code 1, not silently clamped or passed through to
   divide by zero deep in a pass. *)
let require_positive_int name v =
  if v <= 0 then begin
    Printf.eprintf "error: %s must be a positive integer (got %d)\n" name v;
    exit 1
  end

let require_positive_float name v =
  if not (v > 0.0) then begin
    Printf.eprintf "error: %s must be positive (got %g)\n" name v;
    exit 1
  end

(* The end of every compile, local or --connect: print the diagnostics
   (after --Werror promotion) under --lint or when one is an error, and the
   verdict of an illegal schedule; either of those is exit 2. *)
let analysis_exit ~lint ~werror ~legality_violations diags =
  let diags =
    if werror then Pom.Analysis.Diagnostic.promote_warnings diags else diags
  in
  let has_errors = Pom.Analysis.Diagnostic.has_errors diags in
  if lint || has_errors then begin
    if diags <> [] then
      Format.eprintf "%a@." Pom.Analysis.Diagnostic.pp_list diags;
    Format.eprintf "analysis:    %s@." (Pom.Analysis.Diagnostic.summary diags)
  end;
  if legality_violations > 0 then begin
    Format.eprintf
      "legality:    %d reversed dependences — the schedule is illegal@."
      legality_violations;
    2
  end
  else if has_errors then 2
  else 0

let pp_served ppf (r : Pom_server.Protocol.response) =
  match r.Pom_server.Protocol.served with
  | Pom_server.Protocol.Cached ->
      Format.fprintf ppf "cached (server wall %.3f s)"
        r.Pom_server.Protocol.wall_s
  | Pom_server.Protocol.Computed ->
      Format.fprintf ppf "computed (server wall %.3f s)"
        r.Pom_server.Protocol.wall_s

(* The input the [workload:] and [validation:] lines name: a built-in
   workload's size, or the C file a --from-c kernel was parsed from, whose
   sizes are the source's own. *)
let input_of ~from_c size =
  match from_c with Some path -> path | None -> Printf.sprintf "size %d" size

(* The head of every compile's output, local or --connect. *)
let print_head ~workload ~input ~framework =
  Format.printf "workload:    %s (%s)@." workload input;
  Format.printf "framework:   %s@." framework

(* The one printer both the remote response and the local fallback flow
   through, so a design compiled either way prints character-identical
   report/speedup/tiles/C lines — only the [served:] provenance (and the
   trace, which carries the fallback note) may differ. *)
let print_remote_result ~workload ~input ~framework ~served ~trace ~emit_c
    ~lint ~werror (r : Pom_server.Protocol.result) =
  print_head ~workload ~input ~framework;
  Format.printf "served:      %s@." served;
  Format.printf "report:      %a@." Pom.Hls.Report.pp
    r.Pom_server.Protocol.report;
  Format.printf "speedup:     %.1fx over unoptimized (%d cycles)@."
    r.Pom_server.Protocol.speedup r.Pom_server.Protocol.baseline_latency;
  if r.Pom_server.Protocol.dse_time_s > 0.0 then
    Format.printf "DSE time:    %.2f s@." r.Pom_server.Protocol.dse_time_s;
  List.iter
    (fun (name, v) ->
      Format.printf "tiles %-10s [%s]@." name
        (String.concat ", " (List.map string_of_int v)))
    r.Pom_server.Protocol.tile_vectors;
  if trace then
    List.iter (Format.printf "trace:       %s@.") r.Pom_server.Protocol.trace;
  if emit_c then begin
    print_newline ();
    print_string r.Pom_server.Protocol.hls_c
  end;
  analysis_exit ~lint ~werror
    ~legality_violations:r.Pom_server.Protocol.legality_violations
    r.Pom_server.Protocol.diags

let report_version_skew ~expected ~got =
  Printf.eprintf
    "error [POM309]: server speaks protocol version %d, this client expects \
     %d\n"
    got expected

(* --connect: ship the scheduled function to a --serve daemon and print
   the wire-returned artifact in the local report shape.  Transport
   failures are retried under the --retries/--retry-backoff policy; when
   the retries are spent the client degrades to a local in-process
   compile of the same request — the design is bit-identical to what the
   server would have produced (same compile entry point, same result
   projection), annotated in the trace as a fallback. *)
let run_remote ~socket ~device ~fw ~dnn ~deadline ~use_cache ~trace ~emit_c
    ~lint ~werror ~workload ~input ~framework ~retries ~retry_backoff func =
  let req =
    Pom_server.Client.request ~device ~framework:fw ~dnn ?deadline_s:deadline
      ~use_cache ~client:"pom_compile" func
  in
  let policy =
    { Pom.Resilience.Retry.retries; base_s = retry_backoff }
  in
  let attempts = ref 1 in
  let on_retry ~attempt ~delay_s e =
    attempts := attempt + 1;
    Printf.eprintf
      "pom_compile: attempt %d failed (%s); retrying in %.2f s\n%!" attempt
      (Printexc.to_string e) delay_s
  in
  let fallback_local e =
    Printf.eprintf
      "pom_compile: server %s unreachable after %d attempt(s) (%s); \
       compiling locally\n\
       %!"
      socket !attempts (Printexc.to_string e);
    let c = Pom.compile ~device ~framework:fw ~dnn ?deadline_s:deadline func in
    let r = Pom_server.Protocol.result_of_compiled c in
    print_remote_result ~workload ~input ~framework
      ~served:
        (Printf.sprintf "local fallback (server unreachable after %d \
                         attempt(s))"
           !attempts)
      ~trace ~emit_c ~lint ~werror
      {
        r with
        Pom_server.Protocol.trace =
          r.Pom_server.Protocol.trace
          @ [
              Printf.sprintf "fallback: server %s unreachable; compiled locally"
                socket;
            ];
      }
  in
  match
    Pom_server.Client.compile_retry ~policy ~on_retry ~socket req
  with
  | exception Pom_wire.Wire.Version_mismatch { expected; got; _ } ->
      (* a protocol generation gap will not improve on retry, and silently
         compiling locally would mask a deployment skew: fail loudly *)
      report_version_skew ~expected ~got;
      3
  | exception
      (( Unix.Unix_error _ | End_of_file | Sys_error _
       | Pom_wire.Wire.Corrupt _ ) as e) ->
      fallback_local e
  | resp -> (
      match resp.Pom_server.Protocol.outcome with
      | Error e ->
          Format.eprintf "error [%s]: %s%s@." e.Pom_server.Protocol.code
            e.Pom_server.Protocol.message
            (match e.Pom_server.Protocol.context with
            | [] -> ""
            | ctx -> " (" ^ String.concat " < " ctx ^ ")");
          3
      | Ok r ->
          print_remote_result ~workload ~input ~framework
            ~served:(Format.asprintf "%a" pp_served resp)
            ~trace ~emit_c ~lint ~werror r)

let print_server_stats (s : Pom_server.Protocol.server_stats) =
  let module P = Pom_server.Protocol in
  Format.printf
    "server:      %d requests (%d ok, %d failed, %d rejected)@.\
     cache:       %d hits / %d misses (%d entries)%s@.\
     queue:       %d deep@.\
     executor:    %d respawn(s)@.\
     uptime:      %.1f s@."
    s.P.requests s.P.succeeded s.P.failed s.P.rejected s.P.cache_hits
    s.P.cache_misses s.P.cache_entries
    (match s.P.journal_lag with
    | None -> ""
    | Some 0 -> ", journal synced"
    | Some n -> Printf.sprintf ", journal %d behind" n)
    s.P.queue_depth s.P.executor_respawns s.P.uptime_s

(* --stop and --server-stats: one exchange with the daemon, its status
   reply printed. *)
let query_daemon request socket =
  match request ~socket with
  | s ->
      print_server_stats s;
      0
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot connect to %s: %s\n" socket
        (Unix.error_message e);
      1
  | exception Pom_wire.Wire.Version_mismatch { expected; got; _ } ->
      report_version_skew ~expected ~got;
      1

(* A compile that fails in this process, locally or as the --connect
   fallback, exits 3 with its typed diagnostic. *)
let exit_on_compile_failure f =
  try f () with
  | Pom.Resilience.Fault.Killed site ->
      (* an injected kill simulates the process dying here: no
         degradation, just the resilience exit code *)
      Format.eprintf "error [POM305]: injected kill at %s@." site;
      3
  | (Pom.Resilience.Error.Error _ | Pom.Resilience.Budget.Budget_exceeded _)
    as e ->
      Format.eprintf "%s@."
        (Pom.Resilience.Error.to_string
           (Pom.Resilience.Error.of_exn ~code:"POM301" e));
      3

let framework_of_string = function
  | "baseline" -> Ok `Baseline
  | "pluto" -> Ok `Pluto
  | "polsca" -> Ok `Polsca
  | "scalehls" -> Ok `Scalehls
  | "pom-manual" -> Ok `Pom_manual
  | "pom" | "pom-auto" -> Ok `Pom_auto
  | s -> Error (`Msg ("unknown framework " ^ s))

(* A size too small for a workload is a usage error (exit 1), caught
   before any compile on the local and the --connect paths alike: the
   constructor rejects an empty iterator range, and a compute whose
   guards leave no iteration (trmm's [k > i] at size 1) is proven empty
   here. *)
let build_checked ~workload ~size build =
  let too_small () =
    Printf.eprintf
      "error: size %d is too small for workload %s (a loop has no \
       iterations; try a larger -s)\n"
      size workload;
    exit 1
  in
  match build size with
  | exception Invalid_argument _ -> too_small ()
  | func ->
      if
        List.exists
          (fun (s : Pom.Polyir.Stmt_poly.t) ->
            Pom.Poly.Feasible.is_empty s.Pom.Polyir.Stmt_poly.domain)
          (Pom.Polyir.Prog.of_func_unscheduled func).Pom.Polyir.Prog.stmts
      then too_small ()
      else func

let run workload from_c size framework schedules lint werror emit_c emit_mlir
    emit_testbench validate check_legality timeline trace timing dump_after
    resource_frac jobs deadline on_error inject
    list_workloads serve connect queue no_request_cache stop_socket
    stats_socket retries retry_backoff cache_journal =
  if jobs <> 1 then begin
    Printf.eprintf
      "error: --jobs must be 1 (got %d): the compiler runs on one thread\n"
      jobs;
    exit 1
  end;
  require_positive_int "--size" size;
  require_positive_int "--queue" queue;
  require_positive_int "--retries" retries;
  require_positive_float "--retry-backoff" retry_backoff;
  Option.iter (require_positive_float "--deadline") deadline;
  if not (resource_frac > 0.0 && resource_frac <= 1.0) then begin
    Printf.eprintf "error: --resource-fraction must be in (0, 1] (got %g)\n"
      resource_frac;
    exit 1
  end;
  let on_error =
    match Pom.Resilience.Policy.of_string on_error with
    | Ok p -> p
    | Error m ->
        prerr_endline m;
        exit 1
  in
  (* the daemon compiles under its own defaults and returns a fixed subset
     of the artifact: a flag only a compile in this process honours must
     not be dropped silently *)
  (if connect <> None then
     match
       List.filter_map
         (fun (set, flag) -> if set then Some flag else None)
         [
           (timing, "--timing");
           (dump_after <> [], "--dump-after");
           (validate, "--validate");
           (check_legality, "--check-legality");
           (timeline, "--timeline");
           (emit_mlir, "--emit-mlir");
           (emit_testbench, "--emit-testbench");
           (on_error <> Pom.Resilience.Policy.Abort, "--on-error");
         ]
     with
     | [] -> ()
     | flags ->
         Printf.eprintf
           "error: %s needs a local compile and cannot be used with \
            --connect\n"
           (String.concat ", " flags);
         exit 1);
  let arm_faults () =
    match inject with
    | Some spec -> (
        try Pom.Resilience.Fault.configure spec
        with Invalid_argument m ->
          prerr_endline m;
          exit 1)
    | None -> Pom.Resilience.Fault.configure_from_env ()
  in
  arm_faults ();
  if list_workloads then begin
    List.iter (fun (n, _) -> print_endline n) (workloads ());
    0
  end
  else
    match (serve, stop_socket, stats_socket) with
    | Some socket, _, _ ->
        Pom_server.Server.run ~max_queue:queue ?cache_journal ~socket ()
    | None, Some socket, _ -> query_daemon Pom_server.Client.shutdown socket
    | None, None, Some socket -> query_daemon Pom_server.Client.stats socket
    | None, None, None ->
    let named_builder =
      match from_c with
      | Some path -> (
          try
            let func = Pom.Cfront.Parse.parse_file path in
            Some (Pom.Dsl.Func.name func, fun _ -> func)
          with
          | Pom.Cfront.Parse.Parse_error { line; col; token; message } ->
              report_parse_error path ~line ~col ~token message
          | Pom.Cfront.Lexer.Lex_error { line; col; message } ->
              report_parse_error path ~line ~col ~token:"<char>" message)
      | None ->
          Option.map (fun b -> (workload, b)) (List.assoc_opt workload (workloads ()))
    in
    match named_builder with
    | None ->
        Printf.eprintf "unknown workload %s (try --list)\n" workload;
        1
    | Some (workload, build) -> (
        match framework_of_string framework with
        | Error (`Msg m) ->
            prerr_endline m;
            1
        | Ok fw ->
            exit_on_compile_failure @@ fun () ->
            let device =
              Pom.Hls.Device.scale resource_frac Pom.Hls.Device.xc7z020
            in
            let dnn = List.mem_assoc workload Pom.Workloads.Dnn.by_name in
            (* the size and schedule checks are not part of the compile:
               their projections must not count toward --inject's visit
               numbers *)
            Pom.Resilience.Fault.reset ();
            let func = build_checked ~workload ~size build in
            (* a directive the parser or a Schedule constructor rejects (a
               split factor of 1, an II of 0, an unknown compute), or one
               the workload's loops reject (a dimension the compute lacks,
               a new name it already has), is a usage error *)
            (match
               List.iter
                 (fun s -> Pom.Dsl.Func.schedule func (directive_of_string s))
                 schedules;
               if schedules <> [] then ignore (Pom.Polyir.Prog.of_func func)
             with
            | () -> ()
            | exception
                ( Failure m
                | Invalid_argument m
                | Pom.Polyir.Transform.Transform_error m ) ->
                prerr_endline m;
                exit 1);
            arm_faults ();
            match connect with
            | Some socket ->
                run_remote ~socket ~device ~fw ~dnn ~deadline
                  ~use_cache:(not no_request_cache) ~trace ~emit_c ~lint
                  ~werror ~workload ~input:(input_of ~from_c size) ~framework
                  ~retries ~retry_backoff func
            | None ->
            let c =
              Pom.compile ~device ~framework:fw ~dnn ~dump_after
                ?deadline_s:deadline ~on_error func
            in
            let known =
              List.sort_uniq String.compare
                (List.map (fun r -> r.Pom.Pipeline.Pass.pass) c.Pom.passes)
            in
            List.iter
              (fun name ->
                if name <> "all" && not (List.mem name known) then
                  Printf.eprintf
                    "warning: --dump-after %s matches no registered pass \
                     (known: %s)\n"
                    name (String.concat ", " known))
              dump_after;
            print_head ~workload ~input:(input_of ~from_c size) ~framework;
            if timing then begin
              List.iter
                (Format.printf "pass:        %a@." Pom.Pipeline.Pass.pp_record)
                c.Pom.passes;
              let dh, dm = Pom.Hls.Summary.dep_cache_stats () in
              Format.printf "cache:       dependence memo %d/%d hits@." dh
                (dh + dm)
            end;
            List.iter
              (fun (r : Pom.Pipeline.Pass.record) ->
                match r.Pom.Pipeline.Pass.dump with
                | Some ir ->
                    Format.printf "---- IR after %s ----@.%s@."
                      r.Pom.Pipeline.Pass.pass ir
                | None -> ())
              c.Pom.passes;
            Format.printf "report:      %a@." Pom.Hls.Report.pp c.Pom.report;
            Format.printf "speedup:     %.1fx over unoptimized (%d cycles)@."
              (Pom.speedup c) c.Pom.baseline_latency;
            if c.Pom.dse_time_s > 0.0 then
              Format.printf "DSE time:    %.2f s@." c.Pom.dse_time_s;
            List.iter
              (fun (name, v) ->
                Format.printf "tiles %-10s [%s]@." name
                  (String.concat ", " (List.map string_of_int v)))
              c.Pom.tile_vectors;
            if validate then begin
              let vsize = min size 32 in
              let small = build vsize in
              let cv = Pom.compile ~device ~framework:fw ~dnn small in
              Format.printf "validation:  max divergence %g (%s)@."
                (Pom.validate small cv) (input_of ~from_c vsize)
            end;
            if check_legality then begin
              match Pom.check_legality func c with
              | [] -> Format.printf "legality:    all dependences preserved@."
              | vs ->
                  List.iter
                    (Format.printf "legality:    %a@."
                       Pom.Polyir.Legality.pp_violation)
                    vs
            end;
            if trace then begin
              match c.Pom.trace with
              | [] -> Format.printf "trace:       (empty)@."
              | lines -> List.iter (Format.printf "trace:       %s@.") lines
            end;
            if timeline then begin
              print_newline ();
              print_string (Pom.Hls.Timeline.render c.Pom.prog)
            end;
            if emit_mlir then begin
              print_newline ();
              print_string (Pom.mlir c)
            end;
            if emit_c then begin
              print_newline ();
              print_string c.Pom.hls_c
            end;
            if emit_testbench then begin
              print_newline ();
              print_string (Pom.Emit.Emit.testbench c.Pom.affine)
            end;
            analysis_exit ~lint ~werror
              ~legality_violations:c.Pom.legality_violations c.Pom.diags)

let from_c_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "from-c" ]
        ~doc:"Parse the kernel from an HLS C file instead of a built-in workload.")

let workload_arg =
  Arg.(value & opt string "gemm" & info [ "w"; "workload" ] ~doc:"Workload name.")

let size_arg =
  Arg.(value & opt int 1024 & info [ "s"; "size" ] ~doc:"Problem size.")

let framework_arg =
  Arg.(
    value
    & opt string "pom"
    & info [ "f"; "framework" ]
        ~doc:"One of baseline, pluto, polsca, scalehls, pom-manual, pom.")

let schedule_arg =
  Arg.(
    value & opt_all string []
    & info [ "schedule" ] ~docv:"DIRECTIVE"
        ~doc:
          "Apply a scheduling primitive before compiling (repeatable), in \
           the paper's syntax: e.g. 'pipeline s k 1', 'unroll s j 4', \
           'split s k 8 ko ki', 'interchange s i j', 'reverse s k kr', \
           'partition A cyclic 4 4'.  Most useful with -f pom-manual.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Print analyzer diagnostics (IR verifier + dependence-aware \
           pragma lint); errors always print and fail the compile even \
           without this flag.")

let werror_arg =
  Arg.(
    value & flag
    & info [ "Werror" ]
        ~doc:"Promote analyzer warnings to errors (non-zero exit).")

let emit_c_arg =
  Arg.(value & flag & info [ "emit-c" ] ~doc:"Print the generated HLS C.")

let emit_testbench_arg =
  Arg.(
    value & flag
    & info [ "emit-testbench" ]
        ~doc:"Print a self-contained C testbench (kernel + checksum main).")

let emit_mlir_arg =
  Arg.(
    value & flag
    & info [ "emit-mlir" ]
        ~doc:"Print the annotated affine dialect as textual MLIR.")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:"Check schedule correctness with the functional simulator.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print the compile trace: DSE decisions and legality verdicts.")

let timing_arg =
  Arg.(
    value & flag
    & info [ "timing" ]
        ~doc:
          "Print one line per compiler pass with wall-clock/CPU time and IR \
           statistics.")

let dump_after_arg =
  Arg.(
    value & opt_all string []
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:
          "Print the IR after the named pass (repeatable; 'all' dumps after \
           every pass).")

let timeline_arg =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:"Print a Fig. 2-style iteration/cycle schedule timeline.")

let check_legality_arg =
  Arg.(
    value & flag
    & info [ "check-legality" ]
        ~doc:"Prove the schedule preserves every dependence (polyhedral check).")

let frac_arg =
  Arg.(
    value & opt float 1.0
    & info [ "resource-fraction" ]
        ~doc:
          "Scale the device resource budget by a fraction in (0, 1] (Fig. 11 \
           sweeps).")

(* perfbench/serve.ml starts its daemon with -j 1 *)
let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Accepted for compatibility; only N=1 is valid, since the compiler \
           runs on one thread.  Any other value is a usage error.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget for the whole compile.  The polyhedral \
           kernels, legality proof, and DSE searches check it \
           cooperatively; when it runs out the compile aborts with a \
           POM301 diagnostic (or applies a fallback, under --on-error \
           degrade).")

let on_error_arg =
  Arg.(
    value & opt string "abort"
    & info [ "on-error" ] ~docv:"POLICY"
        ~doc:
          "What a failed or timed-out pass does: 'abort' (default) stops \
           with a typed POM3xx error and exit code 3; 'degrade' applies \
           the fallback the pass declares, and only the analyses declare \
           one: a failed lint or IR verification is skipped with a \
           warning, and a legality proof that fails or times out rejects \
           the schedule with an error (exit 2).  Inside the DSE searches \
           a failed candidate is skipped and an exhausted budget keeps \
           the incumbent design; any other failure still exits 3.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection for resilience testing: \
           comma-separated site=kind@n terms, kind one of fail, timeout, \
           kill (e.g. 'pass:hls-synthesize=fail@1,dse:evaluate=kill@5').  \
           Also read from the POM_FAULTS environment variable.")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List available workloads.")

let serve_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve" ] ~docv:"SOCKET"
        ~doc:
          "Run as a persistent compile server on the named Unix-domain \
           socket.  The process stays warm across requests — the \
           dependence memo and a cross-request response cache persist — \
           so repeated compiles of one design point cost a lookup.  \
           Compiles are serialized (each request gets its own \
           --deadline-style budget); admission is bounded by --queue.  \
           Exits 0 on SIGTERM/SIGINT or a client --stop, 1 when the \
           socket cannot be bound.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Compile on the --serve daemon at $(docv) instead of in this \
           process: the scheduled workload is shipped over the framed \
           wire protocol and the synthesis report, HLS C, trace and \
           analyzer diagnostics come back: --lint, --Werror and the exit \
           code act on them as on a local compile.  --deadline rides along \
           as the server-side budget.  A flag only a local compile honours \
           (--timing, --dump-after, --validate, --check-legality, \
           --timeline, --emit-mlir, --emit-testbench, --on-error other \
           than abort) is a usage error.")

let queue_arg =
  Arg.(
    value
    & opt int Pom_server.Server.default_max_queue
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "With --serve: admit at most $(docv) queued requests; further \
           requests are answered immediately with a typed POM310 \
           overload error.")

let no_request_cache_arg =
  Arg.(
    value & flag
    & info [ "no-request-cache" ]
        ~doc:
          "With --connect: bypass the server's cross-request response \
           cache (the dependence memo stays warm).  For measurement and \
           bit-identity checks.")

let stop_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stop" ] ~docv:"SOCKET"
        ~doc:
          "Ask the --serve daemon at $(docv) to shut down cleanly and \
           print its final status, as --server-stats does.")

let server_stats_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "server-stats" ] ~docv:"SOCKET"
        ~doc:
          "Print the --serve daemon's status and exit: request counters, \
           cache hits and size (and, with --cache-journal, the journal's \
           durability lag), queue depth, executor respawns, uptime.  \
           Answered on the connection thread, never queued behind a \
           compile.")

let retries_arg =
  Arg.(
    value & opt int 3
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "With --connect: retry a failed transport exchange up to $(docv) \
           times (exponential backoff, capped at 2 s) before degrading to \
           a local in-process compile of the same request.  Must be \
           positive.")

let retry_backoff_arg =
  Arg.(
    value
    & opt float Pom.Resilience.Retry.default.Pom.Resilience.Retry.base_s
    & info [ "retry-backoff" ] ~docv:"SECS"
        ~doc:
          "With --connect: base delay before the first retry; each further \
           retry doubles it (capped).  Must be positive.")

let cache_journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-journal" ] ~docv:"FILE"
        ~doc:
          "With --serve: journal every response-cache insert to $(docv) \
           (append, flush per record; torn tails truncated on reopen).  A \
           restarted daemon replays the journal and serves previously \
           compiled requests as bit-identical cache hits.")

let cmd =
  let doc = "POM: generate an optimized FPGA accelerator for a workload" in
  let exits =
    [
      Cmd.Exit.info 0
        ~doc:"on success (including a clean --serve daemon shutdown).";
      Cmd.Exit.info 1
        ~doc:
          "on usage errors (unknown options, bad numeric options, \
           unparsable input — POM307, a flag only a local compile honours \
           given with --connect), an unbindable --serve socket, or an \
           unreachable --stop/--server-stats socket.  An \
           unreachable --connect socket is not fatal: after --retries \
           transport retries the client compiles locally and exits by \
           that compile's result.";
      Cmd.Exit.info 2
        ~doc:
          "on analyzer errors or an illegal schedule (POM1xx/POM2xx), \
           including a schedule rejected under --on-error degrade because \
           its legality proof failed or timed out (POM300/POM301).";
      Cmd.Exit.info 3
        ~doc:
          "on a resilience abort: exhausted --deadline, a failed pass \
           without a degrade fallback, injected kill, or a typed \
           server-side error over --connect (POM3xx, including POM310 \
           overload).";
    ]
  in
  Cmd.v
    (Cmd.info "pom_compile" ~doc ~exits)
    Term.(
      const run $ workload_arg $ from_c_arg $ size_arg $ framework_arg
      $ schedule_arg $ lint_arg $ werror_arg $ emit_c_arg $ emit_mlir_arg
      $ emit_testbench_arg $ validate_arg $ check_legality_arg $ timeline_arg
      $ trace_arg $ timing_arg $ dump_after_arg $ frac_arg
      $ jobs_arg $ deadline_arg $ on_error_arg $ inject_arg
      $ list_arg $ serve_arg $ connect_arg $ queue_arg $ no_request_cache_arg
      $ stop_arg $ server_stats_arg $ retries_arg $ retry_backoff_arg
      $ cache_journal_arg)

(* Cmdliner exits 124 on a command-line parse error (unknown flag,
   malformed value); the documented contract gives usage errors 1. *)
let () =
  exit (match Cmd.eval' cmd with c when c = Cmd.Exit.cli_error -> 1 | c -> c)
