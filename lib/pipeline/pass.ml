type 's t = {
  name : string;
  degrade : ('s -> Pom_resilience.Error.t -> 's) option;
  run : 's -> 's;
}

let v ?degrade ~name run = { name; degrade; run }

(* Wrap a pass in the resilience guard.  The wrapped pass:
   - is a fault-injection site named ["pass:<name>"];
   - maps any failure (including a budget timeout) to a typed
     {!Pom_resilience.Error.t} carrying the pass name;
   - under [--on-error degrade], a pass that declares a fallback returns
     what the fallback makes of the state and the error; every other pass,
     and every pass under [Abort], re-raises the typed error.
   [Fault.Killed] (simulated process death) is never absorbed. *)
let guarded p =
  let module R = Pom_resilience in
  let run st =
    try
      R.Fault.point ("pass:" ^ p.name);
      p.run st
    with
    | R.Fault.Killed _ as e -> raise e
    | e -> (
        let err = R.Error.of_exn ~code:"POM300" ~pass:p.name e in
        match p.degrade with
        | Some fallback when R.Policy.degrading () -> fallback st err
        | _ -> raise (R.Error.Error err))
  in
  { p with run }

type record = {
  pass : string;
  wall_s : float;
  cpu_s : float;
  stats : Stats.t option;
  dump : string option;
}

type 's instruments = {
  stats : ('s -> Stats.t) option;
  dump : ('s -> string) option;
  dump_after : string list;
}

let observe_nothing = { stats = None; dump = None; dump_after = [] }

let wants_dump instruments name =
  List.mem name instruments.dump_after || instruments.dump_after = [ "all" ]

let run ?(instruments = observe_nothing) passes state =
  let records = ref [] in
  let final =
    List.fold_left
      (fun st pass ->
        let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
        let st' = pass.run st in
        let wall_s = Unix.gettimeofday () -. wall0
        and cpu_s = Sys.time () -. cpu0 in
        let apply hook = Option.map (fun f -> f st') hook in
        let record =
          {
            pass = pass.name;
            wall_s;
            cpu_s;
            stats = apply instruments.stats;
            dump =
              (if wants_dump instruments pass.name then
                 apply instruments.dump
               else None);
          }
        in
        records := record :: !records;
        st')
      state passes
  in
  (final, List.rev !records)

let pp_record ppf r =
  Format.fprintf ppf "%-24s %8.3f ms wall %8.3f ms cpu" r.pass
    (r.wall_s *. 1000.0) (r.cpu_s *. 1000.0);
  Option.iter (fun s -> Format.fprintf ppf "  [%a]" Stats.pp s) r.stats
