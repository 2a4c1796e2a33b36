(** Client side of the compile-server protocol: connect to the Unix
    socket, send one framed request, read the one framed response.

    All entry points raise [Unix.Unix_error] when the server is not
    listening, {!Pom_wire.Wire.Corrupt} / {!Pom_wire.Wire.Version_mismatch}
    on a malformed or incompatible response, and [End_of_file] when the
    server closes without answering (e.g. killed mid-compile). *)

(** [compile ~socket request] returns the server's response — which may
    itself carry a typed [Error] outcome (POM301 deadline, POM310
    overload, ...); transport-level failures raise. *)
val compile : socket:string -> Protocol.request -> Protocol.response

(** As {!compile}, but transport-level failures (connection refused,
    socket vanished, server died mid-exchange, torn frame) are retried
    under the {!Pom_resilience.Retry} policy — capped exponential
    backoff, bounded by the request's own [deadline_s] when set.  Typed
    error {e responses} are never retried: they answer the request.
    When every attempt fails, the last transport exception is re-raised
    — callers then degrade (the CLI falls back to a local in-process
    compile). *)
val compile_retry :
  ?policy:Pom_resilience.Retry.policy ->
  ?on_retry:(attempt:int -> delay_s:float -> exn -> unit) ->
  socket:string ->
  Protocol.request ->
  Protocol.response

(** The daemon's status ({!Protocol.server_stats}): answered from the
    connection thread, never queued behind a compile. *)
val stats : socket:string -> Protocol.server_stats

(** The readiness probe: {!stats} under the name perfbench/serve.ml
    polls. *)
val ping : socket:string -> Protocol.server_stats

(** Ask the server to stop; returns its final counters. *)
val shutdown : socket:string -> Protocol.server_stats

(** Convenience constructor with the common defaults: [use_cache = true],
    [dnn = false], device [xc7z020], no deadline. *)
val request :
  ?id:int ->
  ?device:Pom_hls.Device.t ->
  ?framework:Pom.framework ->
  ?dnn:bool ->
  ?deadline_s:float ->
  ?use_cache:bool ->
  ?client:string ->
  Pom_dsl.Func.t ->
  Protocol.request
