open Pom_dsl
open Pom_hls

type counters = {
  mutable schedule_hits : int;
  mutable schedule_misses : int;
  mutable report_hits : int;
  mutable report_misses : int;
  mutable plan_hits : int;  (* always 0: read by perfbench/cold.ml *)
  mutable plan_misses : int;
}

type t = {
  schedules : (string, Pom_polyir.Prog.t) Hashtbl.t;
  reports : (string, Report.t) Hashtbl.t;
  max_entries : int;
  lock : Mutex.t;
  mutable report_observer :
    (key:string -> Pom_polyir.Prog.t -> Report.t -> unit) option;
  c : counters;
}

let create ?(max_entries = 4096) () =
  {
    schedules = Hashtbl.create 256;
    reports = Hashtbl.create 256;
    max_entries;
    lock = Mutex.create ();
    report_observer = None;
    c =
      {
        schedule_hits = 0;
        schedule_misses = 0;
        report_hits = 0;
        report_misses = 0;
        plan_hits = 0;
        plan_misses = 0;
      };
  }

let global = create ()

let snapshot t =
  Mutex.lock t.lock;
  let c =
    {
      schedule_hits = t.c.schedule_hits;
      schedule_misses = t.c.schedule_misses;
      report_hits = t.c.report_hits;
      report_misses = t.c.report_misses;
      plan_hits = t.c.plan_hits;
      plan_misses = t.c.plan_misses;
    }
  in
  Mutex.unlock t.lock;
  c

let counters = snapshot

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.schedules;
  Hashtbl.reset t.reports;
  Mutex.unlock t.lock

let set_report_observer t obs =
  Mutex.lock t.lock;
  t.report_observer <- obs;
  Mutex.unlock t.lock

(* The function fingerprint covers everything directive application and
   synthesis can observe: iterator extents, array shapes and types, and the
   statement bodies (two same-named workloads at different problem sizes or
   data types must not collide). *)
let func_key func =
  let b = Buffer.create 256 in
  Buffer.add_string b (Func.name func);
  List.iter
    (fun (c : Compute.t) ->
      Buffer.add_char b '|';
      Buffer.add_string b (Format.asprintf "%a" Compute.pp c);
      List.iter
        (fun (v : Var.t) ->
          Buffer.add_string b
            (Printf.sprintf ";%s:%d:%d" v.Var.name v.Var.lb v.Var.ub))
        c.Compute.iters)
    (Func.computes func);
  List.iter
    (fun (p : Placeholder.t) ->
      Buffer.add_string b
        (Printf.sprintf "|%s[%s]%s" p.Placeholder.name
           (String.concat "," (List.map string_of_int p.Placeholder.shape))
           (Dtype.c_name p.Placeholder.dtype)))
    (Func.placeholders func);
  Buffer.contents b

let directives_key directives =
  String.concat ";" (List.map Schedule.to_string directives)

let join_keys keys = String.concat ";" (List.filter (( <> ) "") keys)

let device_key (d : Device.t) =
  Printf.sprintf "%s:%d:%d:%d:%d:%g" d.Device.name d.Device.dsp d.Device.lut
    d.Device.ff d.Device.bram_bits d.Device.clock_mhz

(* Past [max_entries] a table is dropped wholesale: long benchmark sweeps
   would otherwise retain every design point ever evaluated. *)
let guard_capacity t table =
  if Hashtbl.length table > t.max_entries then Hashtbl.reset table

(* [memoize t table key ~hit ~miss compute]: a hit returns the stored value;
   a miss is counted, computed with the lock released (a compute may itself
   ask the memo for a schedule), and stored.  A compute that
   raises stores nothing, so the next request for the key computes again. *)
let memoize t table key ~hit ~miss compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt table key with
  | Some v ->
      hit t.c;
      Mutex.unlock t.lock;
      v
  | None ->
      miss t.c;
      Mutex.unlock t.lock;
      let v = compute () in
      Mutex.lock t.lock;
      guard_capacity t table;
      Hashtbl.replace table key v;
      Mutex.unlock t.lock;
      v

let schedule ?fkey ?dkey t func directives =
  Pom_resilience.Budget.check "memo:schedule";
  let fkey = match fkey with Some k -> k | None -> func_key func in
  let dkey = match dkey with Some k -> k | None -> directives_key directives in
  let key = fkey ^ "##" ^ dkey in
  memoize t t.schedules key
    ~hit:(fun c -> c.schedule_hits <- c.schedule_hits + 1)
    ~miss:(fun c -> c.schedule_misses <- c.schedule_misses + 1)
    (fun () ->
      Pom_polyir.Prog.apply_all
        (Pom_polyir.Prog.of_func_unscheduled func)
        directives)

let report_key ~fkey ~composition ~latency_mode ~device ~dkey =
  String.concat "##"
    [
      fkey;
      dkey;
      device_key device;
      (match composition with
      | Resource.Reuse -> "reuse"
      | Resource.Dataflow -> "dataflow");
      (match latency_mode with
      | `Sequential -> "sequential"
      | `Dataflow -> "dataflow");
    ]

let synthesize_profiled t ~fkey ?prices ?(composition = Resource.Reuse)
    ?(latency_mode = `Sequential) ~device ~dkey prog profiles =
  Pom_resilience.Budget.check "memo:synthesize";
  let key = report_key ~fkey ~composition ~latency_mode ~device ~dkey in
  memoize t t.reports key
    ~hit:(fun c -> c.report_hits <- c.report_hits + 1)
    ~miss:(fun c -> c.report_misses <- c.report_misses + 1)
    (fun () ->
      let report =
        Report.of_profiles ?prices ~composition ~latency_mode ~device prog
          (profiles ())
      in
      (* genuine evaluations only: replayed (restored) design points never
         re-fire the observer, so a resumed journal does not re-journal *)
      (match t.report_observer with
      | Some obs -> obs ~key prog report
      | None -> ());
      report)

let synthesize t ?composition ?latency_mode ~device ~directives prog =
  synthesize_profiled t ~fkey:(func_key prog.Pom_polyir.Prog.func)
    ?composition ?latency_mode ~device ~dkey:(directives_key directives) prog
    (fun () -> Summary.profile_all prog)

(* Checkpoint replay: seed a settled report without touching the counters or
   the observer — a restored point must behave exactly like a warm cache
   entry, so a resumed search replays into hits and reproduces the
   uninterrupted search's decisions. *)
let restore_report t ~key value =
  Mutex.lock t.lock;
  if not (Hashtbl.mem t.reports key) then Hashtbl.replace t.reports key value;
  Mutex.unlock t.lock

(* The journal's record payload: the wire-encoded report, the schema
   {!Pom_resilience.Checkpoint.version} covers.  The design point's
   program is not recorded: its key names it, and a resumed search
   rebuilds it from its own units. *)
let journal_value = Pom_hls.Wirec.report

(* The full journal protocol for one search: replay the intact records into
   the report memo, journal every genuinely computed point while [f] runs,
   and unhook/close no matter how [f] exits (in particular on a simulated
   kill — the journal's flushed prefix is exactly what resume replays).
   A record that no longer decodes is dropped as a cache miss (POM308) and
   counted in the trace notes: the journal is a cache of recomputable
   work, so losing a record costs a recomputation, never correctness. *)
let with_journal t path f =
  match path with
  | None -> f []
  | Some path -> (
      match Pom_resilience.Checkpoint.load path with
      | exception Sys_error m ->
          f
            [
              Printf.sprintf
                "checkpoint: %s unreadable (%s); continuing without a journal \
                 (POM306)"
                path m;
            ]
      | j, records, load_notes ->
          let replayed = ref 0 in
          let dropped = ref 0 in
          List.iter
            (fun (key, data) ->
              match Pom_wire.Wire.of_string journal_value data with
              | Ok v ->
                  restore_report t ~key v;
                  incr replayed
              | Error _ -> incr dropped)
            records;
          set_report_observer t
            (Some
               (fun ~key _prog report ->
                 Pom_resilience.Checkpoint.append j ~key
                   ~data:(Pom_wire.Wire.to_string journal_value report)));
          let notes =
            load_notes
            @ (if !replayed > 0 then
                 [
                   Printf.sprintf
                     "checkpoint: replayed %d design points from %s" !replayed
                     path;
                 ]
               else
                 [
                   Printf.sprintf "checkpoint: journaling design points to %s"
                     path;
                 ])
            @
            if !dropped > 0 then
              [
                Printf.sprintf
                  "checkpoint: dropped %d undecodable design points (POM308)"
                  !dropped;
              ]
            else []
          in
          Fun.protect
            ~finally:(fun () ->
              set_report_observer t None;
              Pom_resilience.Checkpoint.close j)
            (fun () -> f notes))
