(** The compile-server wire protocol.

    A connection carries exactly one exchange over the {!Pom_wire.Frame}
    stream format: the client writes a [pom-request] header and one
    request record, the server writes a [pom-response] header and one
    response record, and the connection closes.  Both sides check the
    header's kind and schema version; a mismatch is a typed
    POM308/POM309 response (server side) or exception (client side),
    never a crash.

    Record tags on the request stream:
    - [1] — compile: a full {!request} (function with its attached
      directives, device, framework, deadline, cache preference);
    - [2] — stats: empty payload, answered with {!server_stats};
    - [3] — shutdown: empty payload, answered with {!server_stats}
      after the stop flag is set.

    Both status requests are answered on the connection thread, never
    queued behind a compile.

    Unknown request tags are answered with a POM308 error response
    (forward compatibility belongs to the framing layer, but a server
    must answer {e something} to a one-shot connection). *)

(** Frame kinds and the protocol schema version (bump on incompatible
    payload changes, and when {!cache_key} changes, so a cache journal
    keyed the old way restarts empty with a POM309 note).  Version 4 keys
    the cache on the request's wire bytes. *)

val request_kind : string
val response_kind : string
val version : int

(** The default cap on a request record's payload: requests are small
    (a DSL function, not an artifact), so the server rejects anything
    larger before allocating. *)
val default_max_request_payload : int

type request = {
  id : int;  (** echoed back in the response *)
  func : Pom_dsl.Func.t;  (** carries its attached directives *)
  device : Pom_hls.Device.t;
  framework : Pom.framework;
  dnn : bool;
  deadline_s : float option;  (** per-request budget on the server *)
  use_cache : bool;
      (** [false] bypasses the cross-request response cache:
          measurement and bit-identity checks use this *)
  client : string;  (** free-form label for the server log *)
}

(** The compile artifact subset that crosses the wire. *)
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
      (** the compile's analyzer diagnostics, unfiltered: the client
          prints them under [--lint] or on errors, as a local compile
          does *)
}

type error = { code : string; message : string; context : string list }

(** How the response was produced: compiled on this request, or served
    verbatim from the cross-request response cache. *)
type served = Computed | Cached

(** Always {!no_memo}: the compiler keeps no design-point memo.  Kept in
    the wire schema, which perfbench/serve.ml reads. *)
type memo_stats = {
  schedule_hits : int;
  schedule_misses : int;
  report_hits : int;
  report_misses : int;
  plan_hits : int;
  plan_misses : int;
}

(** All zeros: the [memo] of every response. *)
val no_memo : memo_stats

type response = {
  r_id : int;
  served : served;
  memo : memo_stats;
  wall_s : float;  (** server-side wall clock for this request *)
  outcome : (result, error) Stdlib.result;
}

(** The daemon's one status record: what [--server-stats], [--stop] and
    the readiness probe print or poll. *)
type server_stats = {
  requests : int;
  succeeded : int;
  failed : int;
  rejected : int;  (** POM310 admission rejections *)
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  journal_lag : int option;
      (** [Some n] when response-cache journaling is on, with [n] the
          cached responses not yet durable on disk (0 = fully
          journaled); [None] when journaling is off *)
  queue_depth : int;
  executor_respawns : int;
      (** executor crashes survived (POM312), each charged to one
          request *)
  uptime_s : float;
}

type client_msg = Compile of request | Stats | Shutdown

type server_msg = Response of response | Server_stats of server_stats

(** Codecs (exported for fuzzing and round-trip tests). *)

val request_codec : request Pom_wire.Wire.t
val response_codec : response Pom_wire.Wire.t
val server_stats_codec : server_stats Pom_wire.Wire.t
val result_codec : result Pom_wire.Wire.t

(** Stream kind of the server's durable response-cache journal (a
    {!Pom_resilience.Checkpoint} with [key = cache_key], [data] a
    wire-encoded {!result}, schema {!version}); a file of any other kind
    is restarted empty rather than misread. *)
val cache_journal_kind : string

(** Project the compile artifact onto the wire subset — used by the
    server's executor {e and} the client's local-fallback path, so both
    produce field-identical results. *)
val result_of_compiled : Pom.compiled -> result

(** The cross-request cache key of a compile request: the digest of its
    {!request_codec} bytes with [id], [deadline_s], [use_cache] and
    [client] set to fixed values.  Those are the bytes the daemon decodes
    the compile's inputs from (the function with every statement, guard
    and attached directive, the device, the framework and the DNN flag),
    so two requests share a key only when they ask for the same
    compile. *)
val cache_key : request -> string

(** {1 Channel IO}

    Writers flush.  Readers raise {!Pom_wire.Wire.Corrupt} on torn or
    corrupt input, {!Pom_wire.Wire.Version_mismatch} on a framing or
    schema version gap, and [End_of_file] on a cleanly closed empty
    stream. *)

val write_client_msg : out_channel -> client_msg -> unit
val read_client_msg : ?max_payload:int -> in_channel -> client_msg
val write_server_msg : out_channel -> server_msg -> unit
val read_server_msg : in_channel -> server_msg

(** Build the typed POM3xx payload for an exception the compile raised
    ([Budget_exceeded] maps to POM301, wire corruption to POM308, ...). *)
val error_of_exn : exn -> error
