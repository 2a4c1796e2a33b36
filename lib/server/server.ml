module Budget = Pom_resilience.Budget
module Checkpoint = Pom_resilience.Checkpoint

let default_max_queue = 16

(* One queued compile.  The connection thread that decoded the request
   owns the socket and the response write; the executor owns the compute.
   They meet on [resp] (under [m]) and on [cancelled], which the
   connection thread sets when it sees the client hang up — the
   executor's per-request budget polls it, so a disconnect aborts the
   compile at the next cooperative checkpoint. *)
type job = {
  req : Protocol.request;
  cancelled : bool Atomic.t;
  m : Mutex.t;
  mutable resp : Protocol.response option;
  (* completion doorbell: the executor writes one byte after settling
     [resp], so the connection thread's select wakes immediately instead
     of on its next disconnect-poll tick.  The connection thread owns
     both ends; [notify_closed] (under [m]) keeps the executor from
     writing into a recycled descriptor after the owner gave up. *)
  notify_r : Unix.file_descr;
  notify_w : Unix.file_descr;
  mutable notify_closed : bool;
}

let settle (job : job) resp =
  Mutex.lock job.m;
  job.resp <- Some resp;
  if not job.notify_closed then
    (try ignore (Unix.write job.notify_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
  Mutex.unlock job.m

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  max_queue : int;
  max_payload : int;
  stop : bool Atomic.t;
  (* admission queue *)
  qm : Mutex.t;
  qc : Condition.t;
  queue : job Queue.t;
  mutable queue_closed : bool;
  (* cross-request response cache + counters, under [sm] *)
  sm : Mutex.t;
  cache : (string, Protocol.result) Hashtbl.t;
  (* durable mirror of [cache]: every insert is appended (key, result) so
     a restarted daemon warm-starts from disk.  [journaled] counts entries
     known durable; cache size minus it is the journal lag the status
     reply reports. *)
  journal : Protocol.result Checkpoint.t option;
  mutable journaled : int;
  mutable requests : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable rejected : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable executor_respawns : int;
  started_at : float;
  live_conns : int Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable exec_thread : Thread.t option;
}

(* Every counter bump, cache read and cache insert runs under [sm]. *)
let locked t f = Mutex.protect t.sm f

let stats t =
  let queue_depth = Mutex.protect t.qm (fun () -> Queue.length t.queue) in
  locked t @@ fun () ->
  let cache_entries = Hashtbl.length t.cache in
  {
    Protocol.requests = t.requests;
    succeeded = t.succeeded;
    failed = t.failed;
    rejected = t.rejected;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    cache_entries;
    journal_lag =
      Option.map (fun _ -> max 0 (cache_entries - t.journaled)) t.journal;
    queue_depth;
    executor_respawns = t.executor_respawns;
    uptime_s = Unix.gettimeofday () -. t.started_at;
  }

(* Every response the server sends: only a compile or a cache hit has a
   start time [t0] to charge its wall clock from. *)
let response ?(served = Protocol.Computed) ?t0 ~id outcome =
  {
    Protocol.r_id = id;
    served;
    memo = Protocol.no_memo;
    wall_s =
      (match t0 with Some t0 -> Unix.gettimeofday () -. t0 | None -> 0.0);
    outcome;
  }

let error code message = Stdlib.Error { Protocol.code; message; context = [] }

(* -------- executor -------- *)

(* First write wins, mirrored to the journal when one is configured.  A
   failed append (disk full, journal on a dead mount) costs durability,
   not the request: the in-memory cache still serves, and the status
   reply reports the growing lag.  Caller holds [sm]. *)
let cache_insert t key result =
  if not (Hashtbl.mem t.cache key) then begin
    Hashtbl.replace t.cache key result;
    match t.journal with
    | None -> ()
    | Some j -> (
        try
          Checkpoint.append j ~key result;
          t.journaled <- t.journaled + 1
        with _ -> ())
  end

let execute t (job : job) =
  let req = job.req in
  let key = Protocol.cache_key req in
  let t0 = Unix.gettimeofday () in
  let respond ?served outcome =
    settle job (response ?served ~t0 ~id:req.Protocol.id outcome)
  in
  let cached =
    if not req.Protocol.use_cache then None
    else
      locked t @@ fun () ->
      let v = Hashtbl.find_opt t.cache key in
      (match v with
      | Some _ -> t.cache_hits <- t.cache_hits + 1
      | None -> t.cache_misses <- t.cache_misses + 1);
      v
  in
  match cached with
  | Some result ->
      locked t (fun () -> t.succeeded <- t.succeeded + 1);
      respond ~served:Protocol.Cached (Ok result)
  | None -> (
      match
        (* the request's deadline and the disconnect poll become the
           ambient budget for this compile only; [Pom.compile] is not
           given a deadline of its own, so it runs under this one *)
        Budget.with_budget ?deadline_s:req.Protocol.deadline_s
          ~cancel:(fun () -> Atomic.get job.cancelled)
          (fun () ->
            Pom.compile ~device:req.Protocol.device
              ~framework:req.Protocol.framework ~dnn:req.Protocol.dnn
              req.Protocol.func)
      with
      | c ->
          let result = Protocol.result_of_compiled c in
          (* only successful compiles enter the cache (a deadline-shaped
             failure must not poison future requests), and the first
             write wins: a cache-bypassing recompile reproduces the
             design but not the stopwatch fields, and cached responses
             must stay bit-stable across it *)
          locked t (fun () ->
              t.succeeded <- t.succeeded + 1;
              cache_insert t key result);
          respond (Ok result)
      | exception e ->
          locked t (fun () -> t.failed <- t.failed + 1);
          respond (Stdlib.Error (Protocol.error_of_exn e)))

let next_job t =
  Mutex.lock t.qm;
  let rec wait () =
    if not (Queue.is_empty t.queue) then begin
      let j = Queue.pop t.queue in
      Mutex.unlock t.qm;
      Some j
    end
    else if t.queue_closed then begin
      Mutex.unlock t.qm;
      None
    end
    else begin
      Condition.wait t.qc t.qm;
      wait ()
    end
  in
  wait ()

let run_job t (job : job) =
  if Atomic.get job.cancelled then begin
    (* client gone before we started: account it, skip the work *)
    locked t (fun () -> t.failed <- t.failed + 1);
    settle job
      (response ~id:job.req.Protocol.id
         (error "POM301" "client disconnected before compile started"))
  end
  else begin
    (* deterministic chaos site: an "executor bug" striking between jobs —
       exactly the class of exception [execute]'s own typed-error mapping
       cannot absorb *)
    Pom_resilience.Fault.point "server:executor";
    execute t job
  end

(* The executor is supervised: [execute] maps everything a compile can
   throw onto a typed error response, so an exception escaping here is an
   executor bug — under the old blanket [try ... with _ -> ()] it was
   swallowed with the client left waiting on a job that would never
   settle.  Now it is logged, charged to the in-flight request alone as a
   typed POM312, and the loop respawns for the next job; the daemon stays
   up and the status reply reports the respawn count. *)
let executor t () =
  let rec next () =
    match next_job t with
    | None -> ()
    | Some job ->
        (match run_job t job with
        | () -> ()
        | exception e ->
            locked t (fun () ->
                t.failed <- t.failed + 1;
                t.executor_respawns <- t.executor_respawns + 1);
            Printf.eprintf
              "pom_compile --serve: executor crashed (%s); respawning \
               (POM312)\n\
               %!"
              (Printexc.to_string e);
            settle job
              (response ~id:job.req.Protocol.id
                 (error "POM312"
                    ("server executor crashed mid-request and was \
                      respawned; only this request failed: "
                    ^ Printexc.to_string e))));
        next ()
  in
  next ()

(* -------- connections -------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send_response fd msg =
  (* SIGPIPE is ignored process-wide; a dead peer surfaces as EPIPE,
     which we swallow — the response is undeliverable, nothing else *)
  let oc = Unix.out_channel_of_descr fd in
  try Protocol.write_server_msg oc msg
  with Sys_error _ | Unix.Unix_error _ -> ()

(* Park until the executor settles [job], watching the socket so a client
   that hangs up cancels the compile instead of wasting the server's
   time.  The doorbell pipe makes completion wake the select immediately
   (a cache hit answers in microseconds, not a poll tick); a readable
   socket returning zero bytes is a hangup; actual stray bytes from a
   confused client are drained and ignored. *)
let await_response fd (job : job) =
  let buf = Bytes.create 64 in
  let rec go () =
    Mutex.lock job.m;
    let resp = job.resp in
    Mutex.unlock job.m;
    match resp with
    | Some r -> Some r
    | None ->
        (match Unix.select [ fd; job.notify_r ] [] [] 1.0 with
        | ready, _, _ when List.mem fd ready -> (
            match Unix.recv fd buf 0 (Bytes.length buf) [] with
            | 0 -> Atomic.set job.cancelled true
            | _ -> ()
            | exception Unix.Unix_error _ -> Atomic.set job.cancelled true)
        | _ -> ()
        | exception Unix.Unix_error _ -> Atomic.set job.cancelled true);
        if Atomic.get job.cancelled then None else go ()
  in
  let r = go () in
  Mutex.lock job.m;
  job.notify_closed <- true;
  Mutex.unlock job.m;
  close_quietly job.notify_r;
  close_quietly job.notify_w;
  r

let enqueue t job =
  Mutex.lock t.qm;
  let admitted =
    if t.queue_closed then `Closed
    else if Queue.length t.queue >= t.max_queue then `Full
    else begin
      Queue.push job t.queue;
      Condition.signal t.qc;
      `Admitted
    end
  in
  Mutex.unlock t.qm;
  admitted

let handle_connection t fd =
  let finally () =
    close_quietly fd;
    Atomic.decr t.live_conns
  in
  Fun.protect ~finally @@ fun () ->
  (* a silent client must not pin this thread forever *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0
   with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  match Protocol.read_client_msg ~max_payload:t.max_payload ic with
  | Protocol.Stats -> send_response fd (Protocol.Server_stats (stats t))
  | Protocol.Shutdown ->
      Atomic.set t.stop true;
      send_response fd (Protocol.Server_stats (stats t))
  | Protocol.Compile req -> (
      locked t (fun () -> t.requests <- t.requests + 1);
      let notify_r, notify_w = Unix.pipe ~cloexec:true () in
      let job =
        {
          req;
          cancelled = Atomic.make false;
          m = Mutex.create ();
          resp = None;
          notify_r;
          notify_w;
          notify_closed = false;
        }
      in
      match enqueue t job with
      | `Full | `Closed ->
          close_quietly notify_r;
          close_quietly notify_w;
          locked t (fun () -> t.rejected <- t.rejected + 1);
          send_response fd
            (Protocol.Response
               (response ~id:req.Protocol.id
                  (error "POM310" "server overloaded: admission queue full")))
      | `Admitted -> (
          match await_response fd job with
          | Some resp -> send_response fd (Protocol.Response resp)
          | None -> (* client hung up; nothing to deliver *) ()))
  | exception End_of_file -> ()
  | exception Pom_wire.Wire.Corrupt { detail; _ } ->
      send_response fd
        (Protocol.Response
           (response ~id:0 (error "POM308" ("corrupt request: " ^ detail))))
  | exception Pom_wire.Wire.Version_mismatch { expected; got; _ } ->
      send_response fd
        (Protocol.Response
           (response ~id:0
              (error "POM309"
                 (Printf.sprintf "protocol version %d (expected %d)" got
                    expected))))
  | exception (Sys_error _ | Unix.Unix_error _) ->
      (* read timeout or transport error: drop the connection *) ()

(* -------- accept loop / lifecycle -------- *)

let acceptor t () =
  let rec loop () =
    if Atomic.get t.stop then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [ _ ], _, _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              Atomic.incr t.live_conns;
              ignore (Thread.create (fun () -> handle_connection t fd) ())
          | exception Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ();
  (* stop: no new connections, drain the queue, wake the executor *)
  close_quietly t.listen_fd;
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ());
  Mutex.lock t.qm;
  t.queue_closed <- true;
  Condition.broadcast t.qc;
  Mutex.unlock t.qm

(* Stale-socket recovery: a daemon killed with SIGKILL leaves its socket
   file behind, and blindly unlinking it would silently kill a healthy
   daemon's endpoint when two [--serve]s race.  So probe first: only a
   socket file nobody answers on is stale and safe to remove.  A live
   listener raises EADDRINUSE here (the caller reports "already
   running"), and a path that is not a socket at all is never touched —
   bind fails on it with its own error instead. *)
let remove_stale_socket socket =
  match (Unix.lstat socket).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_SOCK -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let verdict =
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () -> `Live
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Stale
        | exception Unix.Unix_error _ ->
            (* permissions, interrupt, ...: cannot prove it dead *)
            `Live
      in
      close_quietly fd;
      match verdict with
      | `Live ->
          raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", socket))
      | `Stale -> ( try Unix.unlink socket with Unix.Unix_error _ -> ()))
  | _ -> (* a regular file or directory is the user's, not ours *) ()

let start ?(max_queue = default_max_queue)
    ?(max_payload = Protocol.default_max_request_payload) ?cache_journal
    ~socket () =
  (* a client closing mid-write must surface as EPIPE, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  remove_stale_socket socket;
  let journal, warm =
    match cache_journal with
    | None -> (None, [])
    | Some path ->
        let j, warm, notes =
          Checkpoint.load ~kind:Protocol.cache_journal_kind
            ~version:Protocol.version Protocol.result_codec path
        in
        List.iter (Printf.eprintf "pom_compile --serve: %s\n%!") notes;
        (j, warm)
  in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX socket);
     Unix.listen listen_fd 64
   with e ->
     close_quietly listen_fd;
     Option.iter Checkpoint.close journal;
     raise e);
  let cache = Hashtbl.create 64 in
  (* warm-start: replay the journaled responses, first write wins (the
     cache's own insert discipline, applied to the disk replay too) *)
  let journaled = ref 0 in
  List.iter
    (fun (key, result) ->
      if not (Hashtbl.mem cache key) then begin
        Hashtbl.replace cache key result;
        incr journaled
      end)
    warm;
  let t =
    {
      socket_path = socket;
      listen_fd;
      max_queue;
      max_payload;
      stop = Atomic.make false;
      qm = Mutex.create ();
      qc = Condition.create ();
      queue = Queue.create ();
      queue_closed = false;
      sm = Mutex.create ();
      cache;
      journal;
      journaled = !journaled;
      requests = 0;
      succeeded = 0;
      failed = 0;
      rejected = 0;
      cache_hits = 0;
      cache_misses = 0;
      executor_respawns = 0;
      started_at = Unix.gettimeofday ();
      live_conns = Atomic.make 0;
      accept_thread = None;
      exec_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (acceptor t) ());
  t.exec_thread <- Some (Thread.create (executor t) ());
  t

let request_stop t = Atomic.set t.stop true

let join t =
  Option.iter Thread.join t.accept_thread;
  Option.iter Thread.join t.exec_thread;
  (* give in-flight connection threads a moment to flush their final
     response writes; they hold no server state, so a straggler past the
     grace window is abandoned, not a leak that blocks shutdown *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get t.live_conns > 0 && Unix.gettimeofday () < deadline do
    Thread.yield ();
    Unix.sleepf 0.01
  done;
  (* fsync + close: a cleanly stopped daemon's cache survives a machine
     crash; an unclean death still keeps every flushed record *)
  Option.iter Checkpoint.close t.journal

let run ?max_queue ?max_payload ?cache_journal ~socket () =
  match start ?max_queue ?max_payload ?cache_journal ~socket () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "pom_compile --serve: cannot bind %s: %s\n" socket
        (Unix.error_message e);
      1
  | t ->
      let stop_on_signal _ = request_stop t in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal);
      join t;
      0
