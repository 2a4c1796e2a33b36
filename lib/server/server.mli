(** The persistent compile server (POM-as-a-service).

    One process owns the warm state a cold [pom_compile] rebuilds on
    every run: the dependence memo ({!Pom_hls.Summary}) and a
    cross-request response cache keyed by {!Protocol.cache_key}.
    Clients connect over a Unix-domain socket, send one framed
    {!Protocol.request}, and receive one framed {!Protocol.response}.

    Concurrency model: connection handling is threaded (decode, queue,
    watch for client disconnect, write the response), but compiles are
    serialized on a single executor thread.  This is deliberate — the
    cooperative {!Pom_resilience.Budget} is an ambient process-wide
    token, so two concurrent compiles with different deadlines would
    clash; one executor gives every request its own budget (the
    request's [deadline_s] plus a cancel poll wired to the client's
    connection).

    Admission control: a bounded FIFO queue (default {!default_max_queue}).
    A request arriving with the queue full is answered immediately with a
    typed POM310 error response, never silently dropped.

    Degradation contract: a malformed or oversized request record is
    answered with POM308, a framing/schema version gap with POM309, a
    blown per-request budget with POM301 — the connection that carried
    the bad input closes and the server keeps serving.  A client that
    disconnects mid-compile trips the request's budget at the next
    cooperative checkpoint and costs nothing further.

    Self-healing: the executor thread is supervised — an exception that
    escapes the typed-error mapping (an executor bug, or the
    [server:executor] fault site in tests) is logged, charged to the
    in-flight request alone as a typed POM312 response, and the
    executor respawns for the next job.  With [cache_journal], every
    response-cache insert is also appended to an on-disk
    {!Pom_resilience.Checkpoint} journal (stream kind
    {!Protocol.cache_journal_kind}, torn tails truncated on reopen), so
    a restarted daemon warm-starts and serves previously compiled
    requests as bit-identical cache hits; a journal path that cannot be
    opened leaves the daemon serving without one (a POM306 note on
    stderr).  A status request is answered with {!Protocol.server_stats}
    — counters, queue depth, executor respawns, the journal's durability
    lag, uptime — without queueing behind a compile. *)

type t

val default_max_queue : int

(** [start ~socket ()] binds the Unix-domain socket, spawns the accept
    loop and the executor thread, and returns a handle.  [max_queue]
    bounds the admission queue; [max_payload] caps a request record
    ({!Protocol.default_max_request_payload}); [cache_journal] names
    the durable response-cache journal file (created if absent,
    replayed if present — see the module doc).

    Stale-socket recovery: an existing socket file is connect-probed
    first.  Only a socket nobody answers on is unlinked; a live daemon
    raises [Unix.Unix_error (EADDRINUSE, _, _)], and a path that is
    not a socket is left untouched (bind then fails on it).

    No signal handlers are installed (SIGPIPE excepted, which is
    ignored process-wide — a client closing mid-write must never kill
    the server); {!run} layers signal-driven shutdown on top for the
    daemon entry point. *)
val start :
  ?max_queue:int ->
  ?max_payload:int ->
  ?cache_journal:string ->
  socket:string ->
  unit ->
  t

(** Request a stop (idempotent, non-blocking): the accept loop exits,
    queued requests are drained and answered, the executor joins. *)
val request_stop : t -> unit

(** Wait for the server to finish shutting down and release the socket.
    Implies nothing about {e why} it stopped (signal, {!request_stop},
    or a client's shutdown request). *)
val join : t -> unit

(** The status reply a stats or shutdown request is answered with. *)
val stats : t -> Protocol.server_stats

(** [run ~socket ()] is the daemon entry point: {!start}, install
    SIGTERM/SIGINT handlers that trigger a clean stop, block until
    shutdown, and return the process exit code (0 on a clean stop, 1
    when the socket cannot be bound or is owned by a live daemon). *)
val run :
  ?max_queue:int ->
  ?max_payload:int ->
  ?cache_journal:string ->
  socket:string ->
  unit ->
  int
