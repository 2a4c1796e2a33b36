let with_connection ~socket f =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      f ic oc)

let roundtrip ~socket msg =
  with_connection ~socket (fun ic oc ->
      Protocol.write_client_msg oc msg;
      Protocol.read_server_msg ic)

let unexpected () =
  raise
    (Pom_wire.Wire.Corrupt
       { what = "pom-response"; detail = "response kind does not match request" })

let compile ~socket req =
  match roundtrip ~socket (Protocol.Compile req) with
  | Protocol.Response r -> r
  | Protocol.Server_stats _ -> unexpected ()

let server_stats ~socket msg =
  match roundtrip ~socket msg with
  | Protocol.Server_stats s -> s
  | Protocol.Response _ -> unexpected ()

let stats ~socket = server_stats ~socket Protocol.Stats
let ping = stats
let shutdown ~socket = server_stats ~socket Protocol.Shutdown

(* What a retry may safely chase: the daemon restarting (connection
   refused / socket gone / reset) or dying mid-exchange (EOF, torn
   frame).  A typed error response is NOT retriable — it answers the
   request — and a version mismatch will not improve on attempt two. *)
let transient = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EPIPE
        | Unix.ETIMEDOUT ),
        _,
        _ )
  | End_of_file
  | Pom_wire.Wire.Corrupt _
  | Sys_error _ ->
      true
  | _ -> false

let compile_retry ?(policy = Pom_resilience.Retry.default) ?on_retry ~socket
    req =
  Pom_resilience.Retry.run ~policy ?deadline_s:req.Protocol.deadline_s
    ?on_retry ~retry_on:transient (fun () ->
      compile ~socket req)

let request ?(id = 0) ?(device = Pom_hls.Device.xc7z020)
    ?(framework = `Pom_manual) ?(dnn = false) ?deadline_s ?(use_cache = true)
    ?(client = "pom") func =
  {
    Protocol.id;
    func;
    device;
    framework;
    dnn;
    deadline_s;
    use_cache;
    client;
  }
