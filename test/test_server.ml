(* The compile server: protocol round-trips, cold/warm cache behavior with
   bit-identical results, concurrent clients, mid-request disconnect
   cancelling the compile without taking the server down, and malformed
   input answered with typed errors. *)

module Server = Pom_server.Server
module Client = Pom_server.Client
module Protocol = Pom_server.Protocol
module Wire = Pom_wire.Wire
module Frame = Pom_wire.Frame

(* Unix-domain socket paths are capped near 108 bytes: build them in the
   system temp dir, never under the (deep) dune build tree. *)
let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pom-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?max_queue ?max_payload ?cache_journal f =
  let socket = fresh_socket () in
  let t = Server.start ?max_queue ?max_payload ?cache_journal ~socket () in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop t;
      Server.join t;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f ~socket t)

let scheduled_gemm size =
  let f = Pom.Workloads.Polybench.gemm size in
  Pom.Dsl.Func.schedule f (Pom.Dsl.Schedule.pipeline "s" "k" 1);
  f

(* Poll the server's counters until [ready] holds: a fixed sleep races the
   connection threads, which wait for the runtime lock while a compile runs. *)
let await_stats t ~what ready =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if not (ready (Server.stats t)) then
      if Unix.gettimeofday () > deadline then Alcotest.failf "never saw %s" what
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

(* A compile that cannot finish inside any test's window, for the tests
   that need the executor busy: a chain of 4,000 convolution layers, where
   ResNet-18 has 20.  The compile time grows linearly with the chain, so
   this one runs for tens of seconds; the tests hang up on it and the
   disconnect cancels it. *)
let endless_compile () =
  let open Pom.Dsl in
  let f = Func.create "conv_chain" in
  let img = Placeholder.make "img" [ 16; 18; 18 ] Dtype.p_float32 in
  let rec chain i input =
    if i < 4000 then
      chain (i + 1)
        (Pom.Workloads.Dnn.conv_layer f ~input
           {
             Pom.Workloads.Dnn.label = Printf.sprintf "conv%d" i;
             in_channels = 16;
             out_channels = 16;
             spatial = 16;
             kernel = 3;
           })
  in
  chain 0 img;
  f

let ok_result (r : Protocol.response) =
  match r.Protocol.outcome with
  | Ok v -> v
  | Error e ->
      Alcotest.failf "expected a successful compile, got %s: %s"
        e.Protocol.code e.Protocol.message

(* the design fingerprint a daemon's answer and a local compile must agree
   on: stopwatch and trace legitimately differ, everything else must not *)
let design_bytes (v : Protocol.result) =
  Wire.to_string Protocol.result_codec
    { v with Protocol.dse_time_s = 0.0; trace = [] }

(* -------- protocol round-trips -------- *)

let test_protocol_roundtrip () =
  let req =
    Client.request ~id:42 ~deadline_s:1.5 ~use_cache:false ~client:"test"
      (scheduled_gemm 16)
  in
  let bytes = Wire.to_string Protocol.request_codec req in
  let back = Wire.of_string_exn Protocol.request_codec bytes in
  Alcotest.(check int) "id" 42 back.Protocol.id;
  Alcotest.(check bool) "use_cache" false back.Protocol.use_cache;
  Alcotest.(check (option (float 1e-9))) "deadline" (Some 1.5)
    back.Protocol.deadline_s;
  Alcotest.(check string) "cache key survives the wire"
    (Protocol.cache_key req) (Protocol.cache_key back);
  Alcotest.(check string)
    "the key ignores id, deadline, cache preference and client"
    (Protocol.cache_key (Client.request (scheduled_gemm 16)))
    (Protocol.cache_key req);
  (* two schedules of one function must not collide in the cache *)
  let plain = Client.request (Pom.Workloads.Polybench.gemm 16) in
  let sched = Client.request (scheduled_gemm 16) in
  Alcotest.(check bool) "directives distinguish cache keys" false
    (Protocol.cache_key plain = Protocol.cache_key sched)

(* Two same-named workloads at different sizes, or one workload on two
   devices, are different compiles. *)
let test_cache_key_sizes_and_devices () =
  let key ?device n =
    Protocol.cache_key (Client.request ?device (Pom.Workloads.Polybench.gemm n))
  in
  Alcotest.(check bool) "same name, different size: distinct" false
    (key 32 = key 64);
  Alcotest.(check bool) "different device: distinct" false
    (key 32
    = key ~device:(Pom_hls.Device.scale 0.5 Pom_hls.Device.xc7z020) 32)

(* trmm with its triangular guard [k > i], or without it: same name,
   iterators and arrays, different compiles. *)
let trmm ~guarded n =
  let open Pom.Dsl in
  let open Expr in
  let f = Func.create "trmm" in
  let a = Placeholder.make "A" [ n; n ] Dtype.p_float32 in
  let b = Placeholder.make "B" [ n; n ] Dtype.p_float32 in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n and k = Var.make "k" 0 n in
  ignore
    (Func.compute f "s" ~iters:[ i; j; k ]
       ~where:(if guarded then [ Cgt (ix k, ix i) ] else [])
       ~body:
         (access b [ ix i; ix j ]
         +: (access a [ ix k; ix i ] *: access b [ ix k; ix j ]))
       ~dest:(b, [ ix i; ix j ]) ());
  f

let test_cache_key_guards () =
  let req guarded = Client.request ~framework:`Pom_auto (trmm ~guarded 16) in
  Alcotest.(check string) "the guarded build is the built-in trmm"
    (Protocol.cache_key
       (Client.request ~framework:`Pom_auto (Pom.Workloads.Polybench.trmm 16)))
    (Protocol.cache_key (req true));
  Alcotest.(check bool) "a where guard distinguishes cache keys" false
    (Protocol.cache_key (req true) = Protocol.cache_key (req false));
  with_server @@ fun ~socket _t ->
  ignore (ok_result (Client.compile ~socket (req true)));
  let second = Client.compile ~socket (req false) in
  Alcotest.(check bool) "the unguarded kernel is computed" true
    (second.Protocol.served = Protocol.Computed);
  let local =
    Pom.compile ~device:Pom.Hls.Device.xc7z020 ~framework:`Pom_auto
      ~dnn:false (trmm ~guarded:false 16)
  in
  Alcotest.(check string) "and is the design a local compile gives"
    (design_bytes (Protocol.result_of_compiled local))
    (design_bytes (ok_result second))

(* -------- cold / warm / bypass -------- *)

let test_cold_warm_bit_identity () =
  with_server @@ fun ~socket _t ->
  let request () = Client.request ~id:1 (scheduled_gemm 32) in
  let cold = Client.compile ~socket (request ()) in
  Alcotest.(check bool) "cold is computed" true
    (cold.Protocol.served = Protocol.Computed);
  let r_cold = ok_result cold in
  (* warm, cache allowed: a pure response-cache hit *)
  let warm = Client.compile ~socket (request ()) in
  Alcotest.(check bool) "warm is cached" true
    (warm.Protocol.served = Protocol.Cached);
  let r_warm = ok_result warm in
  Alcotest.(check string) "warm result is bit-identical"
    (Wire.to_string Protocol.result_codec r_cold)
    (Wire.to_string Protocol.result_codec r_warm);
  (* warm, cache bypassed: a full recompile in the warm process *)
  let recompute =
    Client.compile ~socket
      { (request ()) with Protocol.use_cache = false }
  in
  Alcotest.(check bool) "bypass recomputes" true
    (recompute.Protocol.served = Protocol.Computed);
  let r_re = ok_result recompute in
  Alcotest.(check string) "the recompile is bit-identical"
    (Wire.to_string Protocol.result_codec r_cold)
    (Wire.to_string Protocol.result_codec r_re)

(* -------- concurrent clients -------- *)

let test_concurrent_clients () =
  with_server @@ fun ~socket t ->
  let sizes = [| 16; 24; 32; 16 |] in
  let results = Array.make (Array.length sizes) None in
  let threads =
    Array.mapi
      (fun i size ->
        Thread.create
          (fun () ->
            let r =
              Client.compile ~socket
                (Client.request ~id:i (scheduled_gemm size))
            in
            results.(i) <- Some r)
          ())
      sizes
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match r with
      | None -> Alcotest.failf "client %d got no response" i
      | Some r ->
          Alcotest.(check int) "response id echoes" i r.Protocol.r_id;
          ignore (ok_result r))
    results;
  let s = Server.stats t in
  Alcotest.(check int) "all requests accounted" (Array.length sizes)
    s.Protocol.requests;
  Alcotest.(check int) "all succeeded" (Array.length sizes)
    s.Protocol.succeeded;
  (* two clients asked for the identical design point: one computed it,
     and whichever arrived second was served from cache or computed
     again — either way nothing failed and the server kept exactly one
     entry per distinct key *)
  Alcotest.(check int) "one cache entry per distinct key" 3
    s.Protocol.cache_entries

(* -------- mid-request disconnect -------- *)

let test_disconnect_cancels () =
  with_server @@ fun ~socket t ->
  (* a client that sends a compile and hangs up while it runs: the
     budget's cancel poll must abort the work, the server must keep
     serving *)
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let oc = Unix.out_channel_of_descr fd in
  let f = endless_compile () in
  Protocol.write_client_msg oc
    (Protocol.Compile (Client.request ~id:7 ~framework:`Pom_auto f));
  (* the executor looks each request up in the response cache before
     compiling it: hang up as soon as it has taken this one *)
  await_stats t ~what:"the executor taking the request" (fun s ->
      s.Protocol.cache_misses = 1);
  Unix.close fd;
  (* the server answers other clients while (and after) the abandoned
     compile is cancelled *)
  let r = Client.compile ~socket (Client.request ~id:8 (scheduled_gemm 16)) in
  ignore (ok_result r);
  (* the abandoned request must eventually be accounted as failed
     (cancelled), not hang the executor *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    let s = Server.stats t in
    if s.Protocol.failed >= 1 then s
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "cancelled compile never settled"
    else begin
      Unix.sleepf 0.05;
      wait ()
    end
  in
  let s = wait () in
  Alcotest.(check int) "both requests seen" 2 s.Protocol.requests;
  Alcotest.(check int) "the live client succeeded" 1 s.Protocol.succeeded

(* -------- malformed input -------- *)

let raw_exchange ~socket bytes =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let oc = Unix.out_channel_of_descr fd in
      output_string oc bytes;
      flush oc;
      (* half-close so a torn record reads as EOF now, not as a stalled
         stream the server waits out *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      Protocol.read_server_msg (Unix.in_channel_of_descr fd))

let expect_error_code ~socket bytes code =
  match raw_exchange ~socket bytes with
  | Protocol.Response { Protocol.outcome = Error e; _ } ->
      Alcotest.(check string) "typed error code" code e.Protocol.code
  | Protocol.Response _ -> Alcotest.fail "expected an error response"
  | Protocol.Server_stats _ ->
      Alcotest.fail "expected a compile response"

let test_malformed_requests () =
  with_server ~max_payload:4096 @@ fun ~socket _t ->
  (* garbage magic *)
  expect_error_code ~socket "GARBAGE-NOT-A-FRAME" "POM308";
  (* valid header, torn record *)
  let torn =
    let b = Buffer.create 64 in
    Buffer.add_string b
      (Frame.header_to_string
         { Frame.kind = Protocol.request_kind; version = Protocol.version });
    let rec_buf = Buffer.create 64 in
    Frame.add_record rec_buf ~tag:1 (String.make 64 'x');
    Buffer.add_string b
      (String.sub (Buffer.contents rec_buf) 0 (Buffer.length rec_buf - 7));
    Buffer.contents b
  in
  expect_error_code ~socket torn "POM308";
  (* CRC-intact record whose payload is not a request *)
  let undecodable =
    let b = Buffer.create 64 in
    Buffer.add_string b
      (Frame.header_to_string
         { Frame.kind = Protocol.request_kind; version = Protocol.version });
    Frame.add_record b ~tag:1 "not a request record";
    Buffer.contents b
  in
  expect_error_code ~socket undecodable "POM308";
  (* a payload above the server's cap must be rejected, not allocated *)
  let oversized =
    let b = Buffer.create 8192 in
    Buffer.add_string b
      (Frame.header_to_string
         { Frame.kind = Protocol.request_kind; version = Protocol.version });
    Frame.add_record b ~tag:1 (String.make 8000 'y');
    Buffer.contents b
  in
  expect_error_code ~socket oversized "POM308";
  (* schema version gap *)
  let wrong_version =
    Frame.header_to_string
      { Frame.kind = Protocol.request_kind; version = Protocol.version + 1 }
    ^
    let b = Buffer.create 16 in
    Frame.add_record b ~tag:2 (Wire.to_string Wire.unit ());
    Buffer.contents b
  in
  expect_error_code ~socket wrong_version "POM309";
  (* after all that abuse the server still compiles *)
  let r = Client.compile ~socket (Client.request (scheduled_gemm 16)) in
  ignore (ok_result r)

(* -------- admission control -------- *)

let test_admission_overload () =
  with_server ~max_queue:1 @@ fun ~socket t ->
  (* occupy the executor with a compile, then fill the queue; the next
     request must bounce with POM310 *)
  let slow_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect slow_fd (Unix.ADDR_UNIX socket);
  Protocol.write_client_msg
    (Unix.out_channel_of_descr slow_fd)
    (Protocol.Compile
       (Client.request ~id:100 ~framework:`Pom_auto (endless_compile ())));
  await_stats t ~what:"the slow request" (fun s -> s.Protocol.requests = 1);
  (* the executor looks each request up in the response cache before
     compiling it: once it has, the slow compile is running *)
  await_stats t ~what:"the executor taking the slow request" (fun s ->
      s.Protocol.cache_misses = 1);
  (* executor busy: this one parks in the queue *)
  let queued_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect queued_fd (Unix.ADDR_UNIX socket);
  Protocol.write_client_msg
    (Unix.out_channel_of_descr queued_fd)
    (Protocol.Compile (Client.request ~id:101 (scheduled_gemm 16)));
  await_stats t ~what:"a full queue" (fun s -> s.Protocol.queue_depth = 1);
  (* queue full: rejected immediately with the typed overload error *)
  let r = Client.compile ~socket (Client.request ~id:102 (scheduled_gemm 24)) in
  (match r.Protocol.outcome with
  | Error e -> Alcotest.(check string) "overload code" "POM310" e.Protocol.code
  | Ok _ -> Alcotest.fail "expected POM310 overload");
  (* release everything: the abandoned slow compile cancels via its
     budget, the queued request completes *)
  Unix.close slow_fd;
  let queued = Protocol.read_server_msg (Unix.in_channel_of_descr queued_fd) in
  (match queued with
  | Protocol.Response qr -> ignore (ok_result qr)
  | Protocol.Server_stats _ ->
      Alcotest.fail "expected a compile response");
  Unix.close queued_fd

(* -------- shutdown over the wire -------- *)

let test_shutdown_request () =
  let socket = fresh_socket () in
  let t = Server.start ~socket () in
  ignore (Client.compile ~socket (Client.request (scheduled_gemm 16)));
  let s = Client.shutdown ~socket in
  Alcotest.(check int) "one request served before shutdown" 1
    s.Protocol.requests;
  (* join must return promptly and release the socket *)
  let t0 = Unix.gettimeofday () in
  Server.join t;
  Alcotest.(check bool) "join is prompt" true (Unix.gettimeofday () -. t0 < 10.0);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

(* -------- stale-socket recovery -------- *)

let test_stale_socket_recovered () =
  let socket = fresh_socket () in
  (* a daemon that died without unlinking: the file is a socket, but
     nobody answers on it *)
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;
  Alcotest.(check bool) "stale socket left behind" true
    (Sys.file_exists socket);
  let t = Server.start ~socket () in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop t;
      Server.join t;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let r = Client.compile ~socket (Client.request (scheduled_gemm 16)) in
      ignore (ok_result r))

let test_live_socket_not_stolen () =
  with_server @@ fun ~socket _t ->
  match Server.start ~socket () with
  | t2 ->
      Server.request_stop t2;
      Server.join t2;
      Alcotest.fail "second daemon bound over a live one"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()

let test_non_socket_file_untouched () =
  let path = fresh_socket () in
  let oc = open_out path in
  output_string oc "precious bytes";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match Server.start ~socket:path () with
      | t ->
          Server.request_stop t;
          Server.join t;
          Alcotest.fail "server bound over a regular file"
      | exception Unix.Unix_error _ -> ());
      let ic = open_in path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file left untouched" "precious bytes" contents)

(* -------- status reply -------- *)

let test_ping_server_stats () =
  with_server @@ fun ~socket _t ->
  let s = Client.ping ~socket in
  Alcotest.(check int) "no respawns yet" 0 s.Protocol.executor_respawns;
  Alcotest.(check int) "queue empty" 0 s.Protocol.queue_depth;
  Alcotest.(check int) "cache empty" 0 s.Protocol.cache_entries;
  Alcotest.(check (option int)) "journal off" None s.Protocol.journal_lag;
  Alcotest.(check bool) "uptime sane" true (s.Protocol.uptime_s >= 0.0);
  ignore (Client.compile ~socket (Client.request (scheduled_gemm 16)));
  let s = Client.ping ~socket in
  Alcotest.(check int) "cache grew" 1 s.Protocol.cache_entries;
  Alcotest.(check int) "the stats request answers the same record"
    s.Protocol.requests (Client.stats ~socket).Protocol.requests

(* -------- durable cache journal -------- *)

let test_journal_warm_start () =
  let journal = Filename.temp_file "pom-cache-journal" ".bin" in
  Sys.remove journal;
  (* the server creates it *)
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists journal then Sys.remove journal)
    (fun () ->
      let req () = Client.request ~id:5 (scheduled_gemm 32) in
      let cold_bytes =
        with_server ~cache_journal:journal @@ fun ~socket _t ->
        let r = Client.compile ~socket (req ()) in
        let s = Client.ping ~socket in
        Alcotest.(check (option int)) "insert journaled" (Some 0)
          s.Protocol.journal_lag;
        Wire.to_string Protocol.result_codec (ok_result r)
      in
      (* a restarted daemon replays the journal into its cache and serves
         the old request as a hit, bit-identically *)
      with_server ~cache_journal:journal @@ fun ~socket _t ->
      let s = Client.ping ~socket in
      Alcotest.(check int) "entry replayed at startup" 1
        s.Protocol.cache_entries;
      Alcotest.(check (option int)) "journal synced after replay" (Some 0)
        s.Protocol.journal_lag;
      let warm = Client.compile ~socket (req ()) in
      Alcotest.(check bool) "served from the replayed cache" true
        (warm.Protocol.served = Protocol.Cached);
      Alcotest.(check string) "bit-identical across the restart" cold_bytes
        (Wire.to_string Protocol.result_codec (ok_result warm)))

(* A journal path that cannot be created costs the journal, not the
   daemon: it serves without one and says so on stderr (POM306). *)
let test_journal_unopenable () =
  let log = Filename.temp_file "pom-serve" ".err" in
  let socket = fresh_socket () in
  (* the note goes to stderr at start-up: capture just that *)
  let t =
    let saved = Unix.dup Unix.stderr in
    let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
    Unix.dup2 fd Unix.stderr;
    Unix.close fd;
    Fun.protect
      ~finally:(fun () ->
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      (fun () -> Server.start ~cache_journal:"/nonexistent-dir/j" ~socket ())
  in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop t;
      Server.join t;
      Sys.remove log)
    (fun () ->
      Alcotest.(check string) "the POM306 note"
        "pom_compile --serve: checkpoint: /nonexistent-dir/j unreadable \
         (/nonexistent-dir/j: No such file or directory); continuing \
         without a journal (POM306)\n"
        (In_channel.with_open_bin log In_channel.input_all);
      let req = Client.request (scheduled_gemm 16) in
      ignore (ok_result (Client.compile ~socket req));
      let s = Client.stats ~socket in
      Alcotest.(check (option int)) "serving without a journal" None
        s.Protocol.journal_lag;
      Alcotest.(check int) "the cache still serves" 1 s.Protocol.cache_entries)

(* -------- executor supervision -------- *)

let test_executor_crash_respawns () =
  Pom.Resilience.Fault.configure "server:executor=fail@1";
  Fun.protect ~finally:Pom.Resilience.Fault.reset @@ fun () ->
  with_server @@ fun ~socket _t ->
  (* first request rides the crashing executor: typed POM312, charged to
     this request alone *)
  let crashed = Client.compile ~socket (Client.request (scheduled_gemm 16)) in
  (match crashed.Protocol.outcome with
  | Error e ->
      Alcotest.(check string) "typed executor-crash code" "POM312"
        e.Protocol.code
  | Ok _ -> Alcotest.fail "expected the injected executor crash");
  (* the respawned executor serves the next request *)
  let ok = Client.compile ~socket (Client.request (scheduled_gemm 16)) in
  ignore (ok_result ok);
  Alcotest.(check int) "respawn counted" 1
    (Client.stats ~socket).Protocol.executor_respawns

(* -------- analyzer diagnostics over the wire -------- *)

(* pom_compile is built next to this test in the build tree *)
let pom_compile =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "pom_compile.exe"))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains text sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

(* A compile's analyzer errors travel in its result: the CLI against a live
   daemon prints them and exits 2, as a local compile does, both when the
   daemon computes the response and when it serves it from its cache. *)
let test_connect_diagnostics () =
  with_server @@ fun ~socket _t ->
  List.iter
    (fun served ->
      let out = Filename.temp_file "pom_server" ".out" in
      let err = Filename.temp_file "pom_server" ".err" in
      let code =
        Sys.command
          (String.concat " "
             [
               pom_compile; "-w gemm -s 64 -f pom-manual --schedule";
               Filename.quote "partition A cyclic 0 4"; "--connect";
               Filename.quote socket; ">"; Filename.quote out; "2>";
               Filename.quote err;
             ])
      in
      let stdout = read_file out and stderr = read_file err in
      Sys.remove out;
      Sys.remove err;
      Alcotest.(check bool) (served ^ ": served as expected") true
        (contains stdout ("served:      " ^ served));
      Alcotest.(check int) (served ^ ": exit code") 2 code;
      Alcotest.(check bool) (served ^ ": prints POM207") true
        (contains stderr "POM207"))
    [ "computed"; "cached" ]

(* -------- daemon kill -9: retry, then local fallback -------- *)

let test_daemon_kill_local_fallback_bit_identical () =
  let req () = Client.request ~id:9 (scheduled_gemm 32) in
  (* golden: what a healthy server serves *)
  let golden =
    with_server @@ fun ~socket _t ->
    design_bytes (ok_result (Client.compile ~socket (req ())))
  in
  (* a real daemon process, kill -9'd: the socket file stays behind with
     nobody listening, so every retry sees a transient connection error *)
  let socket = fresh_socket () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process pom_compile
      [| pom_compile; "--serve"; socket |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "daemon bound its socket" true (Sys.file_exists socket);
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let retried = ref 0 in
      let policy =
        { Pom.Resilience.Retry.retries = 2; base_s = 0.01 }
      in
      (match
         Client.compile_retry ~policy
           ~on_retry:(fun ~attempt:_ ~delay_s:_ _ -> incr retried)
           ~socket (req ())
       with
      | _ -> Alcotest.fail "a kill -9'd daemon answered a request"
      | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> ());
      Alcotest.(check int) "every retry was consumed first" 2 !retried;
      (* the client's degradation: compile the same request locally, with
         the server's own result projection — must be the golden design *)
      let c =
        Pom.compile ~device:Pom.Hls.Device.xc7z020 ~framework:`Pom_manual
          ~dnn:false (scheduled_gemm 32)
      in
      Alcotest.(check string) "local fallback is bit-identical" golden
        (design_bytes (Protocol.result_of_compiled c)))

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "round-trips" `Quick test_protocol_roundtrip;
          Alcotest.test_case "keys distinguish sizes and devices" `Quick
            test_cache_key_sizes_and_devices;
          Alcotest.test_case "keys distinguish where guards" `Quick
            test_cache_key_guards;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cold/warm bit-identity" `Quick
            test_cold_warm_bit_identity;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "--connect prints analyzer diagnostics" `Quick
            test_connect_diagnostics;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "mid-request disconnect" `Quick
            test_disconnect_cancels;
          Alcotest.test_case "shutdown request" `Quick test_shutdown_request;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "malformed requests" `Quick test_malformed_requests;
          Alcotest.test_case "admission overload" `Quick test_admission_overload;
        ] );
      ( "self-healing",
        [
          Alcotest.test_case "stale socket recovered" `Quick
            test_stale_socket_recovered;
          Alcotest.test_case "live socket not stolen" `Quick
            test_live_socket_not_stolen;
          Alcotest.test_case "non-socket file untouched" `Quick
            test_non_socket_file_untouched;
          Alcotest.test_case "ping answers server stats" `Quick
            test_ping_server_stats;
          Alcotest.test_case "cache journal warm-starts a restart" `Quick
            test_journal_warm_start;
          Alcotest.test_case "unopenable cache journal" `Quick
            test_journal_unopenable;
          Alcotest.test_case "executor crash is POM312 + respawn" `Quick
            test_executor_crash_respawns;
          Alcotest.test_case "kill -9'd daemon: retries then local fallback"
            `Quick test_daemon_kill_local_fallback_bit_identical;
        ] );
    ]
