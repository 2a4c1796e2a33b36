(* Seeded chaos soak over the self-healing surface: one driver process
   spawns real pom_compile daemons and clients, injects deterministic
   faults between them, and asserts the three invariants
   every failure mode must preserve:

   - no hangs:      every spawned process finishes inside its watchdog
                    and the whole soak inside a global deadline;
   - exit contract: 0 for a served or fallback compile, 3 for a typed
                    resilience abort, never anything else;
   - bit-identity:  the design lines (report, speedup, tiles) match a
                    clean golden compile byte-for-byte, whoever produced
                    them — server, respawned executor, journal replay,
                    or the client's local fallback.

   Three scenarios, interleaved under a seeded schedule:

   - daemon-kill:       kill -9 the --serve daemon while a --connect
                        client is in flight; the client retries, then
                        compiles locally — exit 0, golden design;
   - journal-truncate:  chop the tail off the response-cache journal
                        between daemon runs; the restart truncates the
                        torn record and still serves the golden design;
   - executor-crash:    server:executor=fail@1 crashes the executor on
                        the first request (typed POM312, exit 3); the
                        respawned executor serves the second request
                        (exit 0, golden design) and --health reports the
                        respawn.

   The schedule is a splitmix-style PRNG seeded from POM_CHAOS_SEED
   (default 42): kill delays, truncation lengths, and scenario order are
   all derived from it, so a failing soak replays exactly.  Results go
   to BENCH_chaos.json for the CI chaos-smoke job. *)

let size = 96
let rounds_per_scenario =
  match Sys.getenv_opt "POM_CHAOS_ROUNDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2)
  | None -> 2

let soak_deadline_s = 240.0

let seed =
  match Sys.getenv_opt "POM_CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

(* splitmix-style stream: the whole fault schedule derives from [seed] *)
let prng_state = ref (Int64.of_int (seed lxor 0x9E3779B9))

let next_int bound =
  let open Int64 in
  prng_state := add !prng_state 0x9E3779B97F4A7C15L;
  let z = !prng_state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  Int64.to_int (logand z 0x3FFFFFFFL) mod bound

let exe =
  lazy
    (let self = Sys.executable_name in
     let sibling =
       Filename.concat (Filename.dirname self)
         (Filename.concat Filename.parent_dir_name
            (Filename.concat "bin" "pom_compile.exe"))
     in
     if Sys.file_exists sibling then sibling
     else "pom_compile.exe" (* PATH fallback for installed trees *))

let tmp name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pom-chaos-%d-%s" (Unix.getpid ()) name)

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    let lines = go [] in
    close_in ic;
    lines
  end

type outcome = Exited of int | Hang

(* Spawn with stdout/stderr to files; SIGKILL on watchdog expiry. *)
let spawn args =
  let out = tmp (Printf.sprintf "out-%d" (next_int 1_000_000)) in
  let err = out ^ ".err" in
  let fd flags p = Unix.openfile p flags 0o600 in
  let fd_out = fd [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] out in
  let fd_err = fd [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] err in
  let argv = Array.of_list (Lazy.force exe :: args) in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fd_out fd_err in
  Unix.close fd_out;
  Unix.close fd_err;
  (pid, out, err)

let wait_with_timeout ?(timeout_s = 90.0) pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          Hang
        end
        else begin
          Unix.sleepf 0.02;
          go ()
        end
    | _, Unix.WEXITED c -> Exited c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Exited 255
  in
  go ()

let run_cli ?timeout_s args =
  let pid, out, err = spawn args in
  let st = wait_with_timeout ?timeout_s pid in
  let lines = read_lines out and errs = read_lines err in
  (try Sys.remove out with Sys_error _ -> ());
  (try Sys.remove err with Sys_error _ -> ());
  (st, lines, errs)

(* The design fingerprint: everything the compile *produced*, none of
   what narrates *who* produced it (served:, DSE time:, trace:, retry
   notes live on stderr anyway). *)
let design_lines lines =
  List.filter
    (fun l ->
      let pfx p =
        String.length l >= String.length p && String.sub l 0 (String.length p) = p
      in
      pfx "workload:" || pfx "framework:" || pfx "report:" || pfx "speedup:"
      || pfx "tiles ")
    lines

let base_args = [ "-w"; "gemm"; "-s"; string_of_int size; "-f"; "pom" ]

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let any_line_with needle lines = List.exists (fun l -> contains_sub l needle) lines

type verdict = { scenario : string; round : int; pass : bool; detail : string }

let golden = ref []

let check ~scenario ~round ~expect_exit (st, lines, errs) =
  match st with
  | Hang -> { scenario; round; pass = false; detail = "process hung (killed)" }
  | Exited c when c <> expect_exit ->
      {
        scenario;
        round;
        pass = false;
        detail =
          Printf.sprintf "exit %d, expected %d%s" c expect_exit
            (match errs with [] -> "" | e :: _ -> " — " ^ e);
      }
  | Exited _ when expect_exit = 0 && design_lines lines <> !golden ->
      { scenario; round; pass = false; detail = "design diverged from golden" }
  | Exited _ -> { scenario; round; pass = true; detail = "ok" }

(* -- scenarios ---------------------------------------------------------- *)

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if Sys.file_exists path then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let start_daemon ?(extra = []) socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let pid, out, err = spawn ([ "--serve"; socket ] @ extra) in
  if not (wait_for_socket socket) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    ignore (read_lines err);
    failwith ("daemon never bound " ^ socket)
  end;
  (pid, out, err)

let stop_daemon ?(force = false) socket pid =
  if force then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
  else ignore (run_cli ~timeout_s:20.0 [ "--stop"; socket ]);
  ignore (wait_with_timeout ~timeout_s:20.0 pid);
  try Sys.remove socket with Sys_error _ -> ()

let daemon_kill round =
  let socket = tmp "daemon-kill.sock" in
  let dpid, dout, derr = start_daemon socket in
  (* launch the client, then murder the daemon somewhere inside the
     exchange window — every interleaving (request not yet sent, in
     flight, already answered) must land on exit 0 + golden design *)
  let cpid, cout, cerr =
    spawn
      (base_args
      @ [ "--connect"; socket; "--retries"; "2"; "--retry-backoff"; "0.05" ])
  in
  Unix.sleepf (float_of_int (next_int 200) /. 1000.0);
  (try Unix.kill dpid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_with_timeout ~timeout_s:20.0 dpid);
  let st = wait_with_timeout cpid in
  let lines = read_lines cout and errs = read_lines cerr in
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ cout; cerr; dout; derr; socket ];
  check ~scenario:"daemon-kill" ~round ~expect_exit:0 (st, lines, errs)

let journal_truncate round =
  let socket = tmp "journal.sock" in
  let journal = tmp "journal.bin" in
  (try Sys.remove journal with Sys_error _ -> ());
  let dpid, _, _ = start_daemon ~extra:[ "--cache-journal"; journal ] socket in
  let warm = run_cli (base_args @ [ "--connect"; socket ]) in
  stop_daemon socket dpid;
  let v1 = check ~scenario:"journal-truncate" ~round ~expect_exit:0 warm in
  if not v1.pass then v1
  else begin
    (* tear the tail: the reopened journal must truncate the torn record
       and keep serving — as a replayed hit or a clean recompile *)
    let len = (Unix.stat journal).Unix.st_size in
    let cut = 1 + next_int 24 in
    Unix.truncate journal (max 0 (len - cut));
    let dpid, _, _ =
      start_daemon ~extra:[ "--cache-journal"; journal ] socket
    in
    let again = run_cli (base_args @ [ "--connect"; socket ]) in
    let health = run_cli ~timeout_s:20.0 [ "--health"; socket ] in
    stop_daemon socket dpid;
    (try Sys.remove journal with Sys_error _ -> ());
    let v2 = check ~scenario:"journal-truncate" ~round ~expect_exit:0 again in
    if not v2.pass then v2
    else begin
      match health with
      | Exited 0, _, _ -> v2
      | _ ->
          {
            scenario = "journal-truncate";
            round;
            pass = false;
            detail = "--health failed after journal replay";
          }
    end
  end

let executor_crash round =
  let socket = tmp "executor.sock" in
  let dpid, _, _ =
    start_daemon ~extra:[ "--inject"; "server:executor=fail@1" ] socket
  in
  let first = run_cli (base_args @ [ "--connect"; socket ]) in
  let second = run_cli (base_args @ [ "--connect"; socket ]) in
  let health = run_cli ~timeout_s:20.0 [ "--health"; socket ] in
  stop_daemon socket dpid;
  let _, _, first_errs = first in
  if
    (match first with Exited 3, _, _ -> false | _ -> true)
    || not (any_line_with "POM312" first_errs)
  then
    {
      scenario = "executor-crash";
      round;
      pass = false;
      detail = "first request did not fail with typed POM312 / exit 3";
    }
  else
    let v = check ~scenario:"executor-crash" ~round ~expect_exit:0 second in
    if not v.pass then v
    else begin
      match health with
      | Exited 0, hlines, _ when any_line_with "1 respawn" hlines -> v
      | _ ->
          {
            scenario = "executor-crash";
            round;
            pass = false;
            detail = "--health did not report the executor respawn";
          }
    end

(* -- driver ------------------------------------------------------------- *)

let run () =
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "chaos soak: seed %d, %d round(s) per scenario, gemm size %d\n\n" seed
    rounds_per_scenario size;
  (* golden design from a clean sequential compile: every chaotic path
     below must reproduce these bytes *)
  (match run_cli (base_args @ [ "-j"; "1" ]) with
  | Exited 0, lines, _ -> golden := design_lines lines
  | _ -> failwith "golden compile failed — cannot calibrate the soak");
  let scenarios =
    [
      ("daemon-kill", daemon_kill);
      ("journal-truncate", journal_truncate);
      ("executor-crash", executor_crash);
    ]
  in
  (* seeded interleaving: pull rounds from a shuffled deck so the
     scenarios alternate unpredictably but reproducibly *)
  let deck =
    List.concat_map
      (fun (name, f) ->
        List.init rounds_per_scenario (fun i -> (name, f, i + 1)))
      scenarios
  in
  let deck =
    List.map (fun s -> (next_int 1_000_000, s)) deck
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let verdicts =
    List.map
      (fun (_, f, round) ->
        let v = f round in
        Printf.printf "  %-18s round %d: %s%s\n%!" v.scenario v.round
          (if v.pass then "ok" else "FAIL")
          (if v.pass then "" else " — " ^ v.detail);
        v)
      deck
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let failures = List.filter (fun v -> not v.pass) verdicts in
  let in_deadline = elapsed <= soak_deadline_s in
  Printf.printf "\nsoak: %d round(s), %d failure(s), %.1f s (deadline %.0f s)\n"
    (List.length verdicts) (List.length failures) elapsed soak_deadline_s;
  let oc = open_out "BENCH_chaos.json" in
  Printf.fprintf oc
    "{\n\
    \  \"seed\": %d,\n\
    \  \"size\": %d,\n\
    \  \"rounds_per_scenario\": %d,\n\
    \  \"elapsed_s\": %.2f,\n\
    \  \"within_deadline\": %b,\n\
    \  \"rounds\": [\n"
    seed size rounds_per_scenario elapsed in_deadline;
  List.iteri
    (fun i v ->
      Printf.fprintf oc
        "    { \"scenario\": %S, \"round\": %d, \"pass\": %b, \"detail\": %S \
         }%s\n"
        v.scenario v.round v.pass v.detail
        (if i < List.length verdicts - 1 then "," else ""))
    verdicts;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_chaos.json\n";
  if failures <> [] || not in_deadline then begin
    Printf.eprintf
      "bench chaos: %d failing round(s)%s — replay with POM_CHAOS_SEED=%d\n"
      (List.length failures)
      (if in_deadline then "" else " and the soak blew its deadline")
      seed;
    exit 1
  end
