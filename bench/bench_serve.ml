(* Compile-server benchmark: cold request vs warm recompile vs pure
   response-cache hit, against an in-process --serve daemon on a temp
   socket.  Three measurements per kernel:

   - cold:      first request for the design point (response cache empty
                for that key);
   - warm_memo: same request with the response cache bypassed
                ([use_cache = false]) — a full recompile on a warm
                dependence memo and projection cache;
   - warm_hit:  same request served verbatim from the cross-request
                response cache.

   The acceptance gate rides along: the warm responses must be
   bit-identical to the cold one (compared on the wire encoding), and both
   warm paths must be measurably faster.  Results go to BENCH_serve.json
   for the CI smoke job. *)

module Server = Pom_server.Server
module Client = Pom_server.Client
module Protocol = Pom_server.Protocol
module Wire = Pom_wire.Wire

let size = 512

let kernels =
  [
    ("gemm", fun () -> Pom.Workloads.Polybench.gemm size);
    ("2mm", fun () -> Pom.Workloads.Polybench.mm2 size);
    ("bicg", fun () -> Pom.Workloads.Polybench.bicg size);
  ]

let repeats = 3

type meas = {
  name : string;
  cold : Protocol.response;
  warm_memo : Protocol.response;
  warm_hit : Protocol.response;
  cold_client_s : float;
  warm_memo_client_s : float;
  warm_hit_client_s : float;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Warm measurements are best-of-N (steady state); the cold one is by
   nature a single shot — the first request for the key. *)
let best_of ~socket req =
  let best = ref None in
  for _ = 1 to repeats do
    let r, dt = timed (fun () -> Client.compile ~socket req) in
    match !best with
    | Some (_, b) when b <= dt -> ()
    | _ -> best := Some (r, dt)
  done;
  Option.get !best

let result_bytes (r : Protocol.response) =
  match r.Protocol.outcome with
  | Ok v -> Wire.to_string Protocol.result_codec v
  | Error e -> failwith (Printf.sprintf "%s: %s" e.Protocol.code e.Protocol.message)

(* The design must be bit-identical across cold and warm compiles; the
   search time legitimately is not — a recompile reports its own.  Strip
   it before comparing, so the check is exactly "same artifact", not "same
   stopwatch". *)
let design_bytes (r : Protocol.response) =
  match r.Protocol.outcome with
  | Ok v ->
      Wire.to_string Protocol.result_codec { v with Protocol.dse_time_s = 0.0 }
  | Error e -> failwith (Printf.sprintf "%s: %s" e.Protocol.code e.Protocol.message)

let measure ~socket (name, build) =
  let req = Client.request ~framework:`Pom_auto (build ()) in
  let cold, cold_client_s = timed (fun () -> Client.compile ~socket req) in
  let warm_memo, warm_memo_client_s =
    best_of ~socket { req with Protocol.use_cache = false }
  in
  let warm_hit, warm_hit_client_s = best_of ~socket req in
  { name; cold; warm_memo; warm_hit; cold_client_s; warm_memo_client_s;
    warm_hit_client_s }

let run () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pom-bench-%d.sock" (Unix.getpid ()))
  in
  let server = Server.start ~socket () in
  let rows =
    Fun.protect
      ~finally:(fun () ->
        Server.request_stop server;
        Server.join server;
        if Sys.file_exists socket then Sys.remove socket)
      (fun () -> List.map (measure ~socket) kernels)
  in
  let stats =
    (* counters survive past join: read them before the handle dies *)
    Server.stats server
  in
  let ok = ref true in
  Printf.printf
    "compile server (size %d, %d repeats): cold vs warm-memo vs cache hit\n\n"
    size repeats;
  Printf.printf "%-8s %12s %12s %12s %8s %8s %s\n" "kernel" "cold(s)"
    "warm-memo(s)" "hit-rtt(s)" "memo-x" "hit-x" "identical";
  List.iter
    (fun m ->
      let identical =
        (* a cache hit replays the stored bytes: strictly identical; a
           memo-warm recompile reproduces the design, not the stopwatch *)
        result_bytes m.cold = result_bytes m.warm_hit
        && design_bytes m.cold = design_bytes m.warm_memo
      in
      let faster =
        m.warm_memo.Protocol.wall_s < m.cold.Protocol.wall_s
        && m.warm_hit_client_s < m.cold_client_s
      in
      if not (identical && faster) then ok := false;
      Printf.printf "%-8s %12.4f %12.4f %12.4f %8.1f %8.1f %s\n"
        m.name m.cold.Protocol.wall_s m.warm_memo.Protocol.wall_s
        m.warm_hit_client_s
        (m.cold.Protocol.wall_s /. Float.max 1e-9 m.warm_memo.Protocol.wall_s)
        (m.cold_client_s /. Float.max 1e-9 m.warm_hit_client_s)
        (if identical then "yes" else "NO"))
    rows;
  Printf.printf
    "\nserver: %d requests, cache %d hits / %d misses (%d entries)\n"
    stats.Protocol.requests stats.Protocol.cache_hits
    stats.Protocol.cache_misses stats.Protocol.cache_entries;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"size\": %d,\n\
    \  \"repeats\": %d,\n\
    \  \"cache_hits\": %d,\n\
    \  \"cache_misses\": %d,\n\
    \  \"cache_entries\": %d,\n\
    \  \"kernels\": [\n"
    size repeats stats.Protocol.cache_hits stats.Protocol.cache_misses
    stats.Protocol.cache_entries;
  List.iteri
    (fun i m ->
      Printf.fprintf oc
        "    { \"name\": %S, \"cold_wall_s\": %.6f, \"warm_memo_wall_s\": \
         %.6f,\n\
        \      \"warm_hit_wall_s\": %.6f, \"cold_client_s\": %.6f, \
         \"warm_memo_client_s\": %.6f, \"warm_hit_client_s\": %.6f,\n\
        \      \"warm_memo_speedup\": %.4f, \"warm_hit_speedup\": %.4f,\n\
        \      \"bit_identical\": %b }%s\n"
        m.name m.cold.Protocol.wall_s m.warm_memo.Protocol.wall_s
        m.warm_hit.Protocol.wall_s m.cold_client_s m.warm_memo_client_s
        m.warm_hit_client_s
        (m.cold.Protocol.wall_s /. Float.max 1e-9 m.warm_memo.Protocol.wall_s)
        (m.cold_client_s /. Float.max 1e-9 m.warm_hit_client_s)
        (result_bytes m.cold = result_bytes m.warm_hit
        && design_bytes m.cold = design_bytes m.warm_memo)
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_serve.json\n";
  if not !ok then
    Printf.eprintf
      "bench serve: warm responses diverged from cold (identity or \
       wall-clock) — investigate before trusting the cache\n"
