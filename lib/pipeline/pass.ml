type 's t = { name : string; required : bool; run : 's -> 's }

let v ?(required = false) ~name run = { name; required; run }

(* Wrap a pass in the resilience guard.  The wrapped pass:
   - is a fault-injection site named ["pass:<name>"];
   - maps any failure (including a budget timeout) to a typed
     {!Pom_resilience.Error.t} carrying the pass name;
   - under [--on-error degrade], a non-[required] pass records the failure
     as a diagnostic via [diag] and passes the state through unchanged
     (the pass is skipped); a [required] pass always re-raises the typed
     error, as does everything when the policy is [Abort].
   [Fault.Killed] (simulated process death) is never absorbed. *)
let guarded ~diag p =
  let module R = Pom_resilience in
  let run st =
    try
      R.Fault.point ("pass:" ^ p.name);
      p.run st
    with
    | R.Fault.Killed _ as e -> raise e
    | e ->
        let err = R.Error.of_exn ~code:"POM300" ~pass:p.name e in
        if p.required || not (R.Policy.degrading ()) then
          raise (R.Error.Error err)
        else diag st err
  in
  { p with run }

type record = {
  pass : string;
  wall_s : float;
  cpu_s : float;
  stats : Stats.t option;
  dump : string option;
  verdict : string option;
}

type 's instruments = {
  stats : ('s -> Stats.t) option;
  dump : ('s -> string) option;
  dump_after : string list;
  verify : ('s -> string) option;
  verify_each : bool;
}

let observe_nothing =
  {
    stats = None;
    dump = None;
    dump_after = [];
    verify = None;
    verify_each = false;
  }

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
            verdict =
              (if instruments.verify_each then apply instruments.verify
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
  Option.iter (fun s -> Format.fprintf ppf "  [%a]" Stats.pp s) r.stats;
  Option.iter (fun v -> Format.fprintf ppf "  verify: %s" v) r.verdict
