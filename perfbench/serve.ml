(* serve-zipf: a `pom_compile --serve -j 1` daemon under a closed loop of
   two client threads, each with its own connection per request.  A run is
   a sequence of blocks.  Each block starts a fresh daemon and sends it a
   fixed, seeded stream of [block_requests] requests: a Zipf(1.1) draw over
   48 design points in which one request in ten bypasses the response
   cache.  The cached draws reach every design point (Stats.request_block),
   so every block inserts each of the 48 designs into the cache exactly
   once, and the rest of its requests are cache hits or recompiles on a
   warm memo — the same mix whatever the seed or the speed of the host. *)

module Protocol = Pom_server.Protocol
module Client = Pom_server.Client
module Wire = Pom_wire.Wire

let now = Unix.gettimeofday

let clients = 2

let zipf_s = 1.1

(* one request in ten bypasses the response cache *)
let bypass_every = 10

let block_requests = 600

let daemon_exe () =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "pom_compile.exe")
  in
  if not (Sys.file_exists exe) then
    failwith (exe ^ " is missing: build bin/pom_compile.exe (perfbench/run.sh does)");
  exe

let rec reap pid =
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* Spawn a daemon; its set-up time runs until it answers a ping. *)
let spawn ~socket =
  let exe = daemon_exe () in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "--serve"; socket; "-j"; "1" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let rec wait () =
    match Client.ping ~socket with
    | _ -> now () -. t0
    | exception _ ->
        if now () -. t0 > 30.0 then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid;
          failwith "compile daemon did not answer within 30 s"
        end;
        Unix.sleepf 0.0002;
        wait ()
  in
  (pid, wait ())

let stop ~socket pid =
  (try ignore (Client.shutdown ~socket)
   with _ -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
  reap pid;
  if Sys.file_exists socket then Sys.remove socket

type kind = Hit | Insert | Recompile

type reply = {
  point : int;
  traced : bool;
  rtt : float;
  slowdown : float;  (** the machine's, over this request's segment (Calib) *)
  kind : kind;
  wall_s : float;
  memo : Protocol.memo_stats;
  speedup : float;
  wire : (float * float * int * int) option;
      (** traced: encode s, decode s, request and response bytes *)
}

(* What the clients saw of one design point on one daemon: digests of every
   computed result and of the bytes the cache replays.  A compile's result
   carries its own stopwatch fields, so the bytes differ from daemon to
   daemon and the check is per block. *)
type seen = { mutable computed : string list; mutable cached : string option }

(* Every response is checked against the golden row of its design, and
   every cache hit against the bytes of a compile of the same design.
   Returns the request's kind: the first compile of a design inserts it. *)
let checker ~golden ~key ~points =
  let lock = Mutex.create () in
  let seen = Array.map (fun _ -> { computed = []; cached = None }) points in
  let check k (resp : Protocol.response) (r : Protocol.result) =
    Golden.check golden ~key:(key k) (Golden.of_result r);
    let digest = Digest.string (Wire.to_string Protocol.result_codec r) in
    Mutex.protect lock (fun () ->
        let s = seen.(k) in
        match (resp.Protocol.served, s.cached) with
        | Protocol.Computed, _ ->
            let first = s.computed = [] in
            s.computed <- digest :: s.computed;
            if first then Insert else Recompile
        | Protocol.Cached, None ->
            s.cached <- Some digest;
            Hit
        | Protocol.Cached, Some d ->
            if d <> digest then
              Golden.mismatch golden ~key:(key k)
                "two cache hits of one design returned different bytes";
            Hit)
  in
  let finish () =
    Array.iteri
      (fun k s ->
        match s.cached with
        | Some d when not (List.mem d s.computed) ->
            Golden.mismatch golden ~key:(key k)
              (key k ^ ": a cache hit differs from every compile of its design")
        | _ -> ())
      seen
  in
  (check, finish)

let ms x = x *. 1000.0

let by_point ?(stat = Stats.median) f replies =
  List.sort_uniq compare (List.map (fun r -> r.point) replies)
  |> List.map (fun k -> stat (List.map f (List.filter (fun r -> r.point = k) replies)))

(* One measured block, on a daemon of its own.  It is served in segments
   of at most [Calib.slice_s], with a kernel run between two segments. *)
type segment = {
  wall : float;  (** first request sent to last answer *)
  cpu : float;  (** the daemon's CPU seconds over the same *)
  seg_slowdown : float;
}

type block = {
  replies : reply list;
  segments : segment list;
  rss_kb : int;  (** the daemon's VmHWM after the block *)
  setup : float * float;  (** the daemon's spawn-to-ping time, and its slowdown *)
  stats : Protocol.server_stats;
}

(* The per-layer metrics seen from the client: the daemon's own counters
   and pass records stay in its process, except the memo deltas each
   response carries. *)
let layers blocks =
  let module P = Protocol in
  let replies = List.concat_map (fun b -> b.replies) blocks in
  let traced = List.filter (fun r -> r.traced) replies in
  let wire f = Stats.mean (List.filter_map (fun r -> Option.map f r.wire) traced) in
  let per_req f = Stats.mean (List.map (fun r -> float_of_int (f r.memo)) replies) in
  let sum f = List.fold_left (fun a r -> a + f r.memo) 0 replies in
  let stat f = List.fold_left (fun a b -> a + f b.stats) 0 blocks in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let hits = List.filter (fun r -> r.kind = Hit) replies in
  let overhead =
    let plain = List.filter (fun r -> not r.traced) replies in
    let points rs = List.sort_uniq compare (List.map (fun r -> r.point) rs) in
    let both = List.filter (fun k -> List.mem k (points plain)) (points traced) in
    let only rs = List.filter (fun r -> List.mem r.point both) rs in
    let rtt r = r.rtt in
    let geomean rs = Stats.geomean (by_point ~stat:Stats.mean rtt rs) in
    if both = [] then 1.0 else geomean (only traced) /. geomean (only plain)
  in
  let queue r (enc, dec, _, _) = ms (r.rtt -. r.wall_s -. enc -. dec) in
  let cache_hits = stat (fun s -> s.P.cache_hits) in
  [
    ("server.exec_ms", Stats.mean (List.map (fun r -> ms r.wall_s) replies));
    ( "server.queue_ms",
      Stats.mean (List.filter_map (fun r -> Option.map (queue r) r.wire) traced) );
    ( "server.hit_rtt_ms",
      if hits = [] then 0.0 else Stats.median (List.map (fun r -> ms r.rtt) hits) );
    ( "server.cache_hit_ratio",
      ratio cache_hits (cache_hits + stat (fun s -> s.P.cache_misses)) );
    ("server.rejected", float_of_int (stat (fun s -> s.P.rejected)));
    ("wire.encode_us", wire (fun (e, _, _, _) -> e *. 1e6));
    ("wire.decode_us", wire (fun (_, d, _, _) -> d *. 1e6));
    ("wire.request_bytes", wire (fun (_, _, b, _) -> float_of_int b));
    ("wire.response_bytes", wire (fun (_, _, _, b) -> float_of_int b));
    ("memo.schedule_hits", per_req (fun m -> m.P.schedule_hits));
    ("memo.schedule_misses", per_req (fun m -> m.P.schedule_misses));
    ("memo.report_hits", per_req (fun m -> m.P.report_hits));
    ("memo.report_misses", per_req (fun m -> m.P.report_misses));
    ("memo.plan_hits", per_req (fun m -> m.P.plan_hits));
    ("memo.plan_misses", per_req (fun m -> m.P.plan_misses));
    ( "memo.report_hit_ratio",
      let h = sum (fun m -> m.P.report_hits) in
      ratio h (h + sum (fun m -> m.P.report_misses)) );
    ("harness.trace_overhead", overhead);
  ]

let run ~seed ~seconds ~trace ~golden ~spans =
  let points = Array.of_list (Inputs.serve_points ()) in
  let key k =
    Golden.key ~input:("serve:" ^ points.(k).Inputs.pid) ~framework:"pom" ~jobs:1
  in
  Golden.expect golden (List.init (Array.length points) key);
  let cdf = Stats.zipf ~s:zipf_s (Array.length points) in
  let socket = Printf.sprintf "perfbench/out/z%d.sock" (Unix.getpid ()) in
  let t_begin = now () in
  (* Every measurement has a calibration run on either side (Calib).  The
     set-up probes spawn and stop a daemon; each block adds its own. *)
  let cal = Calib.start () in
  let probes =
    List.init (Cold.setup_repeats - 1) (fun _ ->
        Calib.measure cal (fun () ->
            let pid, dt = spawn ~socket in
            stop ~socket pid;
            dt))
  in
  let lock = Mutex.create () in
  let attempted = ref 0 and failed = ref 0 in
  let count r = Mutex.protect lock (fun () -> incr r) in
  (* A traced request also times the wire codec on the same messages: the
     request's encoding before the round trip, and the response's decoding
     after it, from bytes re-encoded here, untimed. *)
  let record_spans ~tid ~req ~encode:(e0, e1) ~rtt:(r0, r1) ~exec ~decode:(d0, d1) =
    let add ?parent name a b = Spans.add spans ?parent ~tid ~req name a b in
    let top = add "request" e0 d1 in
    ignore (add ~parent:top "wire.encode" e0 e1);
    let rtt = add ~parent:top "server.rtt" r0 r1 in
    (* the daemon's own time, placed at the end of the round trip *)
    ignore (add ~parent:rtt "server.exec" (r1 -. exec) r1);
    ignore (add ~parent:top "wire.decode" d0 d1)
  in
  let request ~check ~tid i (k, bypass) =
    let p = points.(k) in
    let req =
      Client.request ~id:i ~device:p.Inputs.device ~framework:`Pom_auto
        ~use_cache:(not bypass) ~client:"perfbench" p.Inputs.func
    in
    (* in a traced run every other request is traced, so the tracing
       overhead is measured on the same stream *)
    let traced = trace && i mod 2 = 0 in
    let e0 = now () in
    let req_bytes =
      if traced then String.length (Wire.to_string Protocol.request_codec req) else 0
    in
    let e1 = now () in
    count attempted;
    match Client.compile ~socket req with
    | exception e ->
        Printf.eprintf "request %d: transport error: %s\n%!" i (Printexc.to_string e);
        count failed;
        None
    | resp -> (
        let t1 = now () in
        let wire =
          if not traced then None
          else begin
            let bytes = Wire.to_string Protocol.response_codec resp in
            let d0 = now () in
            ignore (Wire.of_string Protocol.response_codec bytes);
            let d1 = now () in
            record_spans ~tid ~req:i ~encode:(e0, e1) ~rtt:(e1, t1)
              ~exec:resp.Protocol.wall_s ~decode:(d0, d1);
            Some (e1 -. e0, d1 -. d0, req_bytes, String.length bytes)
          end
        in
        match resp.Protocol.outcome with
        | Error e ->
            Printf.eprintf "request %d: %s %s\n%!" i e.Protocol.code e.Protocol.message;
            count failed;
            None
        | Ok r ->
            Some
              {
                point = k;
                traced;
                rtt = t1 -. e1;
                slowdown = 1.0;
                kind = check k resp r;
                wall_s = resp.Protocol.wall_s;
                memo = resp.Protocol.memo;
                speedup = r.Protocol.speedup;
                wire;
              })
  in
  let block b =
    let stream =
      Array.of_list
        (Stats.request_block (Stats.rng ~seed ~salt:b) ~cdf ~n:block_requests
           ~bypass_every)
    in
    let (pid, setup), setup_slowdown = Calib.measure cal (fun () -> spawn ~socket) in
    Fun.protect ~finally:(fun () -> stop ~socket pid) @@ fun () ->
    let check, finish_checks = checker ~golden ~key ~points in
    let next = ref 0 in
    (* the next request of the block, unless the segment is over *)
    let take until =
      Mutex.protect lock (fun () ->
          if !next >= block_requests || now () >= until then None
          else begin
            incr next;
            Some (!next - 1)
          end)
    in
    (* the clients pause while the kernel runs between two segments *)
    let segment until =
      let got = ref [] in
      let client tid () =
        let rec loop () =
          match take until with
          | None -> ()
          | Some i ->
              let id = (b * block_requests) + i in
              Option.iter
                (fun r -> Mutex.protect lock (fun () -> got := r :: !got))
                (request ~check ~tid id stream.(i));
              loop ()
        in
        loop ()
      in
      let c0 = Procfs.cpu_s pid and s0 = now () in
      List.iter Thread.join (List.init clients (fun tid -> Thread.create (client tid) ()));
      (!got, now () -. s0, Procfs.cpu_s pid -. c0)
    in
    let rec segments replies segs =
      if !next >= block_requests then (replies, List.rev segs)
      else
        let (got, wall, cpu), slowdown =
          Calib.measure cal (fun () -> segment (now () +. Calib.slice_s))
        in
        segments
          (List.map (fun r -> { r with slowdown }) got @ replies)
          ({ wall; cpu; seg_slowdown = slowdown } :: segs)
    in
    let replies, segments = segments [] [] in
    finish_checks ();
    {
      replies;
      segments;
      rss_kb = Procfs.peak_rss_kb ~pid ();
      setup = (setup, setup_slowdown);
      stats = Client.stats ~socket;
    }
  in
  (* whole blocks only, so every run has the same mix of requests *)
  let rec blocks b acc last =
    if b > 0 && now () -. t_begin +. last > seconds then List.rev acc
    else
      let b0 = now () in
      let blk = block b in
      blocks (b + 1) (blk :: acc) (now () -. b0)
  in
  let blocks = blocks 0 [] 0.0 in
  let replies = List.concat_map (fun b -> b.replies) blocks in
  let n = List.length replies in
  let share kind =
    float_of_int (List.length (List.filter (fun r -> r.kind = kind) replies))
    /. float_of_int (max 1 n)
  in
  Printf.printf
    "%d answered requests in %d blocks of %d to %d design points: %.1f%% cache hits, \
     %.1f%% inserts, %.1f%% recompiles\n"
    n (List.length blocks) block_requests
    (List.length (by_point (fun r -> r.rtt) replies))
    (100.0 *. share Hit) (100.0 *. share Insert) (100.0 *. share Recompile);
  (* [at_ref] puts a duration measured under a slowdown at the reference
     speed *)
  let times ~at_ref =
    let rtt r = ms (at_ref r.slowdown r.rtt) in
    let total f b =
      List.fold_left (fun a s -> a +. at_ref s.seg_slowdown (f s)) 0.0 b.segments
    in
    let answered b = float_of_int (List.length b.replies) in
    (* /proc counts CPU in 10 ms ticks: summed over the run, not per block *)
    let cpu_s = List.fold_left (fun a b -> a +. total (fun s -> s.cpu) b) 0.0 blocks in
    ( [
        ("latency_ms_p50", Cold.p50 (List.map rtt replies));
        (* A design's requests are its one insert per block, a few
           recompiles, and hits: for a rare design about two requests a
           block, so its median would flip between a hit and a compile.
           The mean weighs each kind by its fixed share. *)
        ("latency_ms_geomean", Stats.geomean (by_point ~stat:Stats.mean rtt replies));
        ( "throughput_per_s",
          Stats.median (List.map (fun b -> answered b /. total (fun s -> s.wall) b) blocks) );
        ("cpu_ms_per_request", ms cpu_s /. float_of_int n);
      ],
      List.map rtt replies )
  in
  let metrics, raw, details =
    if replies = [] then ([], [], Json.Null)
    else if trace then (layers blocks, [], Json.Null)
    else
      let setup_raw, setup_s = Calib.medians (probes @ List.map (fun b -> b.setup) blocks) in
      let calibrated, rtts = times ~at_ref:(fun slowdown v -> v /. slowdown) in
      let raw, _ = times ~at_ref:(fun _ v -> v) in
      ( (("setup_s", setup_s) :: calibrated)
        @ [
            ( "peak_rss_mb",
              Stats.median (List.map (fun b -> float_of_int b.rss_kb) blocks) /. 1024.0 );
            ("qor_speedup_geomean", Stats.geomean (by_point (fun r -> r.speedup) replies));
          ],
        ("setup_s", setup_raw) :: raw,
        Json.Obj
          (Cold.latency_summary rtts
          @ [
              ("blocks", Json.Num (float_of_int (List.length blocks)));
              ("hit_share", Json.Num (share Hit));
              ("insert_share", Json.Num (share Insert));
              ("recompile_share", Json.Num (share Recompile));
            ]) )
  in
  let slowdowns = List.concat_map (fun b -> List.map (fun s -> s.seg_slowdown) b.segments) blocks in
  {
    Cold.attempted = !attempted;
    failed = !failed;
    metrics;
    raw;
    slowdown = (if slowdowns = [] then 1.0 else Stats.median slowdowns);
    details;
  }
