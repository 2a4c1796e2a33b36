module Wire = Pom_wire.Wire
module Frame = Pom_wire.Frame

let request_kind = "pom-request"
let response_kind = "pom-response"
let version = 4

(* A request is a DSL function plus a few scalars — kilobytes.  Cap well
   below the framing default so a hostile length field on the listening
   socket is rejected before any allocation. *)
let default_max_request_payload = 8 * 1024 * 1024

type request = {
  id : int;
  func : Pom_dsl.Func.t;
  device : Pom_hls.Device.t;
  framework : Pom.framework;
  dnn : bool;
  deadline_s : float option;
  use_cache : bool;
  client : string;
}

type result = {
  report : Pom_hls.Report.t;
  hls_c : string;
  speedup : float;
  dse_time_s : float;
  baseline_latency : int;
  legality_violations : int;
  tile_vectors : (string * int list) list;
  trace : string list;
  diags : Pom_analysis.Diagnostic.t list;
}

type error = { code : string; message : string; context : string list }
type served = Computed | Cached

type memo_stats = {
  schedule_hits : int;
  schedule_misses : int;
  report_hits : int;
  report_misses : int;
  plan_hits : int;
  plan_misses : int;
}

type response = {
  r_id : int;
  served : served;
  memo : memo_stats;
  wall_s : float;
  outcome : (result, error) Stdlib.result;
}

type server_stats = {
  requests : int;
  succeeded : int;
  failed : int;
  rejected : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  journal_lag : int option;
  queue_depth : int;
  executor_respawns : int;
  uptime_s : float;
}

type client_msg = Compile of request | Stats | Shutdown
type server_msg = Response of response | Server_stats of server_stats

(* -------- codecs -------- *)

let framework_codec : Pom.framework Wire.t =
  Wire.enum "framework"
    [ `Baseline; `Pluto; `Polsca; `Scalehls; `Pom_manual; `Pom_auto ]

let request_codec : request Wire.t =
  Wire.record8 "request"
    (Wire.field Wire.int (fun r -> r.id))
    (Wire.field Pom_dsl.Wirec.func (fun r -> r.func))
    (Wire.field Pom_hls.Wirec.device (fun r -> r.device))
    (Wire.field framework_codec (fun r -> r.framework))
    (Wire.field Wire.bool (fun r -> r.dnn))
    (Wire.field (Wire.option Wire.float) (fun r -> r.deadline_s))
    (Wire.field Wire.bool (fun r -> r.use_cache))
    (Wire.field Wire.string (fun r -> r.client))
    (fun id func device framework dnn deadline_s use_cache client ->
      { id; func; device; framework; dnn; deadline_s; use_cache; client })

let diagnostic_codec : Pom_analysis.Diagnostic.t Wire.t =
  let open Pom_analysis.Diagnostic in
  Wire.record5 "diagnostic"
    (Wire.field Wire.string (fun d -> d.code))
    (Wire.field (Wire.enum "severity" [ Error; Warning; Hint ]) (fun d ->
         d.severity))
    (Wire.field (Wire.list Wire.string) (fun d -> d.loc))
    (Wire.field Wire.string (fun d -> d.message))
    (Wire.field (Wire.option Wire.string) (fun d -> d.note))
    (fun code severity loc message note ->
      { code; severity; loc; message; note })

let result_codec : result Wire.t =
  Wire.record9 "result"
    (Wire.field Pom_hls.Wirec.report (fun r -> r.report))
    (Wire.field Wire.string (fun r -> r.hls_c))
    (Wire.field Wire.float (fun r -> r.speedup))
    (Wire.field Wire.float (fun r -> r.dse_time_s))
    (Wire.field Wire.int (fun r -> r.baseline_latency))
    (Wire.field Wire.int (fun r -> r.legality_violations))
    (Wire.field (Wire.list (Wire.pair Wire.string (Wire.list Wire.int)))
       (fun r -> r.tile_vectors))
    (Wire.field (Wire.list Wire.string) (fun r -> r.trace))
    (Wire.field (Wire.list diagnostic_codec) (fun r -> r.diags))
    (fun report hls_c speedup dse_time_s baseline_latency legality_violations
         tile_vectors trace diags ->
      {
        report;
        hls_c;
        speedup;
        dse_time_s;
        baseline_latency;
        legality_violations;
        tile_vectors;
        trace;
        diags;
      })

let error_codec : error Wire.t =
  Wire.record3 "error"
    (Wire.field Wire.string (fun e -> e.code))
    (Wire.field Wire.string (fun e -> e.message))
    (Wire.field (Wire.list Wire.string) (fun e -> e.context))
    (fun code message context -> { code; message; context })

let served_codec : served Wire.t = Wire.enum "served" [ Computed; Cached ]

let no_memo =
  {
    schedule_hits = 0;
    schedule_misses = 0;
    report_hits = 0;
    report_misses = 0;
    plan_hits = 0;
    plan_misses = 0;
  }

let memo_stats_codec : memo_stats Wire.t =
  Wire.record6 "memo_stats"
    (Wire.field Wire.int (fun m -> m.schedule_hits))
    (Wire.field Wire.int (fun m -> m.schedule_misses))
    (Wire.field Wire.int (fun m -> m.report_hits))
    (Wire.field Wire.int (fun m -> m.report_misses))
    (Wire.field Wire.int (fun m -> m.plan_hits))
    (Wire.field Wire.int (fun m -> m.plan_misses))
    (fun schedule_hits schedule_misses report_hits report_misses plan_hits
         plan_misses ->
      {
        schedule_hits;
        schedule_misses;
        report_hits;
        report_misses;
        plan_hits;
        plan_misses;
      })

let outcome_codec : (result, error) Stdlib.result Wire.t =
  Wire.union "outcome"
    [
      Wire.case 0 result_codec
        (fun r -> Stdlib.Ok r)
        (function Stdlib.Ok r -> Some r | _ -> None);
      Wire.case 1 error_codec
        (fun e -> Stdlib.Error e)
        (function Stdlib.Error e -> Some e | _ -> None);
    ]

let response_codec : response Wire.t =
  Wire.record5 "response"
    (Wire.field Wire.int (fun r -> r.r_id))
    (Wire.field served_codec (fun r -> r.served))
    (Wire.field memo_stats_codec (fun r -> r.memo))
    (Wire.field Wire.float (fun r -> r.wall_s))
    (Wire.field outcome_codec (fun r -> r.outcome))
    (fun r_id served memo wall_s outcome ->
      { r_id; served; memo; wall_s; outcome })

(* Eleven fields over the nine-field record combinator: the cache's three
   counters travel as one triple. *)
let server_stats_codec : server_stats Wire.t =
  Wire.record9 "server_stats"
    (Wire.field Wire.int (fun s -> s.requests))
    (Wire.field Wire.int (fun s -> s.succeeded))
    (Wire.field Wire.int (fun s -> s.failed))
    (Wire.field Wire.int (fun s -> s.rejected))
    (Wire.field (Wire.triple Wire.int Wire.int Wire.int) (fun s ->
         (s.cache_hits, s.cache_misses, s.cache_entries)))
    (Wire.field (Wire.option Wire.int) (fun s -> s.journal_lag))
    (Wire.field Wire.int (fun s -> s.queue_depth))
    (Wire.field Wire.int (fun s -> s.executor_respawns))
    (Wire.field Wire.float (fun s -> s.uptime_s))
    (fun requests succeeded failed rejected
         (cache_hits, cache_misses, cache_entries) journal_lag queue_depth
         executor_respawns uptime_s ->
      {
        requests;
        succeeded;
        failed;
        rejected;
        cache_hits;
        cache_misses;
        cache_entries;
        journal_lag;
        queue_depth;
        executor_respawns;
        uptime_s;
      })

(* -------- cache key -------- *)

(* The bytes the daemon decodes a compile's inputs from, with the fields
   that do not change the compile fixed: two requests share a key only
   when they ask for the same compile. *)
let cache_key r =
  Digest.string
    (Wire.to_string request_codec
       { r with id = 0; deadline_s = None; use_cache = true; client = "" })

(* -------- record tags -------- *)

let tag_compile = 1
let tag_stats = 2
let tag_shutdown = 3
let tag_response = 1
let tag_server_stats = 2

(* The durable response cache is a {!Pom_resilience.Checkpoint} journal
   with its own stream kind, so any other journal handed to
   [--cache-journal] is restarted empty instead of misread. *)
let cache_journal_kind = "pom-cache-journal"

(* -------- channel IO -------- *)

let write_client_msg oc msg =
  Frame.output_header oc { Frame.kind = request_kind; version };
  (match msg with
  | Compile r ->
      Frame.output_record oc ~tag:tag_compile
        (Wire.to_string request_codec r)
  | Stats -> Frame.output_record oc ~tag:tag_stats (Wire.to_string Wire.unit ())
  | Shutdown ->
      Frame.output_record oc ~tag:tag_shutdown (Wire.to_string Wire.unit ()));
  flush oc

let corrupt what detail = raise (Wire.Corrupt { what; detail })

let check_header ~what ~kind h =
  if h.Frame.kind <> kind then
    corrupt what (Printf.sprintf "stream kind %S is not %S" h.Frame.kind kind);
  if h.Frame.version <> version then
    raise
      (Wire.Version_mismatch { what; expected = version; got = h.Frame.version })

let read_client_msg ?(max_payload = default_max_request_payload) ic =
  let what = "pom-request" in
  let h = Frame.input_header ~what ic in
  check_header ~what ~kind:request_kind h;
  match Frame.input_record ~max_payload ~what ic with
  | None -> raise End_of_file
  | Some (tag, payload) ->
      if tag = tag_compile then
        Compile (Wire.of_string_exn request_codec payload)
      else if tag = tag_stats then Stats
      else if tag = tag_shutdown then Shutdown
      else corrupt what (Printf.sprintf "unknown request tag %d" tag)

let write_server_msg oc msg =
  Frame.output_header oc { Frame.kind = response_kind; version };
  (match msg with
  | Response r ->
      Frame.output_record oc ~tag:tag_response
        (Wire.to_string response_codec r)
  | Server_stats s ->
      Frame.output_record oc ~tag:tag_server_stats
        (Wire.to_string server_stats_codec s));
  flush oc

let read_server_msg ic =
  let what = "pom-response" in
  let h = Frame.input_header ~what ic in
  check_header ~what ~kind:response_kind h;
  match Frame.input_record ~what ic with
  | None -> raise End_of_file
  | Some (tag, payload) ->
      if tag = tag_response then
        Response (Wire.of_string_exn response_codec payload)
      else if tag = tag_server_stats then
        Server_stats (Wire.of_string_exn server_stats_codec payload)
      else corrupt what (Printf.sprintf "unknown response tag %d" tag)

(* Shared by the server's executor and the CLI's local-fallback path, so
   a design compiled locally after retries exhaust is, field for field,
   the result the server would have sent. *)
let result_of_compiled (c : Pom.compiled) =
  {
    report = c.Pom.report;
    hls_c = c.Pom.hls_c;
    speedup = Pom.speedup c;
    dse_time_s = c.Pom.dse_time_s;
    baseline_latency = c.Pom.baseline_latency;
    legality_violations = c.Pom.legality_violations;
    tile_vectors = c.Pom.tile_vectors;
    trace = c.Pom.trace;
    diags = c.Pom.diags;
  }

let error_of_exn e =
  let t = Pom_resilience.Error.of_exn ~code:"POM300" e in
  {
    code = t.Pom_resilience.Error.code;
    message = t.Pom_resilience.Error.message;
    context = t.Pom_resilience.Error.context;
  }
