(* The cold protocol: every compile runs in a freshly forked child.

   "Cold" must reset every process-global cache: the Memo tables, the
   projection cache, the Hls.Summary dependence cache (which has no reset
   function) and the Linexpr hash-cons table (domain-local storage).  Only
   a new process resets all of them, so this process (the fork parent)
   never compiles, never builds an input and never spawns a domain or a
   thread — OCaml 5's Unix.fork fails once a second domain exists.  The
   child builds the input, compiles it, and sends its timings back over a
   pipe; the parent only schedules, checks and aggregates. *)

module Memo = Pom.Pipeline.Memo
module Pass = Pom.Pipeline.Pass
module Projcache = Pom.Poly.Projcache

let now = Unix.gettimeofday

(* ---- one cold compile ---- *)

(* Process-global counters, named as the per-layer metrics they feed. *)
let counters () =
  let m = Memo.snapshot Memo.global in
  let p = Projcache.stats () in
  let dep_hits, dep_misses = Pom.Hls.Summary.dep_cache_stats () in
  [
    ("memo.schedule_hits", m.Memo.schedule_hits);
    ("memo.schedule_misses", m.Memo.schedule_misses);
    ("memo.report_hits", m.Memo.report_hits);
    ("memo.report_misses", m.Memo.report_misses);
    ("memo.plan_hits", m.Memo.plan_hits);
    ("memo.plan_misses", m.Memo.plan_misses);
    ("poly.fm_exact_hits", p.Projcache.exact_hits);
    ("poly.fm_exact_misses", p.Projcache.exact_misses);
    ("poly.fm_param_hits", p.Projcache.param_hits);
    ("poly.fm_param_misses", p.Projcache.param_misses);
    ("hls.syntheses", Pom.Hls.Report.synth_count ());
    ("hls.dep_cache_hits", dep_hits);
    ("hls.dep_cache_misses", dep_misses);
  ]

let counter_names = List.map fst (counters ())

type sample = {
  label : string;
  t_fork : float;  (** parent clock, just before fork *)
  t_start : float;  (** child clock from here on *)
  t_build : float;  (** constructor call *)
  t_compile : float;  (** Pom.compile call *)
  t_compiled : float;  (** Pom.compile returned *)
  t_synth : float * float;  (** traced: direct Report.synthesize *)
  t_done : float;
  t_reaped : float;  (** parent clock, child reaped *)
  latency_s : float;
      (** constructor call to Pom.compile's return, less the time the
          child was stopped for calibration *)
  busy_s : float;  (** fork to reap, less the same *)
  slowdown : float;  (** the machine's, while the compile ran (Calib) *)
  cpu_s : float;
  rss_kb : int;
  design : string;  (** golden payload *)
  speedup : float;
  hls_c_bytes : int;
  passes : (string * float) list;  (** pass name, wall seconds, in order *)
  deltas : (string * int) list;  (** traced: counter deltas over the compile *)
}

let latency_ms s = s.latency_s *. 1000.0

let compile_in_child ~traced ~jobs (inp : Inputs.t) t_fork =
  let t_start = now () in
  let before = if traced then counters () else [] in
  let cpu0 = Procfs.self_cpu_s () in
  let t_build = now () in
  let func = inp.Inputs.build () in
  let t_compile = now () in
  (* the whole process gets the budget, as pom_compile -j sets it *)
  Pom.Par.set_jobs jobs;
  let c =
    Pom.compile ~framework:inp.Inputs.framework ~dnn:inp.Inputs.dnn ~jobs func
  in
  let t_compiled = now () in
  let cpu_s = Procfs.self_cpu_s () -. cpu0 in
  let deltas =
    if not traced then []
    else List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (counters ())
  in
  let t_synth =
    if not traced then (0.0, 0.0)
    else begin
      (* the QoR model alone, on the final design, outside the compile *)
      let composition, latency_mode =
        match inp.Inputs.framework with
        | `Scalehls ->
            ( Pom.Hls.Resource.Dataflow,
              if inp.Inputs.dnn then `Dataflow else `Sequential )
        | _ -> (Pom.Hls.Resource.Reuse, `Sequential)
      in
      let s0 = now () in
      ignore
        (Pom.Hls.Report.synthesize ~composition ~latency_mode
           ~device:Pom.Hls.Device.xc7z020 c.Pom.prog);
      (s0, now ())
    end
  in
  {
    label = Inputs.label inp;
    t_fork;
    t_start;
    t_build;
    t_compile;
    t_compiled;
    t_synth;
    t_done = now ();
    t_reaped = 0.0;
    latency_s = 0.0;
    busy_s = 0.0;
    slowdown = 1.0;
    cpu_s;
    rss_kb = Procfs.peak_rss_kb ();
    design = Golden.of_compiled c;
    speedup = Pom.speedup c;
    hls_c_bytes = String.length c.Pom.hls_c;
    passes =
      List.map
        (fun (r : Pass.record) -> (r.Pass.pass, r.Pass.wall_s))
        c.Pom.passes;
    deltas;
  }

(* The speculative DSE scheduler, observed directly (Pom.compile does not
   return it): chunks, steals and splits of the domains-mode warm, or the
   stage-2 wall time of the procs-mode warm. *)
type engine = {
  chunks : int;
  steals : int;
  splits : int;
  occupancy : float;
  stage2_s : float;
}

let engine_in_child ~mode (inp : Inputs.t) _t_fork =
  Pom.Par.set_mode mode;
  Pom.Par.set_jobs 2;
  let o = Pom.Dse.Engine.run ~jobs:2 (inp.Inputs.build ()) in
  let s = o.Pom.Dse.Engine.result.Pom.Dse.Stage2.sched in
  let stage2 (r : Pass.record) = r.Pass.pass = "stage2-search" in
  {
    chunks = s.Pom.Par.Chunks.chunks;
    steals = s.Pom.Par.Chunks.steals;
    splits = s.Pom.Par.Chunks.splits;
    occupancy = Pom.Par.Chunks.occupancy s;
    stage2_s =
      (match List.find_opt stage2 o.Pom.Dse.Engine.records with
      | Some r -> r.Pass.wall_s
      | None -> 0.0);
  }

(* ---- set-up ---- *)

(* Set-up is what a fresh compiling process costs before its first compile:
   exec, runtime and library initialisation, and one fork round trip.  It
   is timed on a probe process ([main.exe ready]) from spawn until it
   reports ready, and the median of [setup_repeats] probes is reported. *)
let setup_repeats = 11

let probe_ready () =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process exe [| exe; "ready" |] Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  let dt = now () -. t0 in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  if line <> "ready" then failwith "set-up probe did not report ready";
  dt

(* The probe's body: prove a fork round trip works, then report. *)
let ready () =
  (match Fork.call (fun _ -> ()) with Ok () -> () | Error e -> failwith e);
  print_endline "ready"

(* ---- the workload ---- *)

(* The per-layer metric each pass record feeds. *)
let pass_layers =
  [
    ("stage1-transform", "dse.stage1_ms");
    ("stage2-search", "dse.stage2_ms");
    ("scalehls-interchange", "baselines.scalehls_interchange_ms");
    ("scalehls-greedy-dse", "baselines.scalehls_dse_ms");
    ("legality-check", "polyir.legality_ms");
    ("lint-pragmas", "analysis.lint_ms");
    ("verify-ir", "analysis.verify_ms");
    ("hls-synthesize", "hls.pass_ms");
    ("affine-lower", "affine.lower_ms");
    ("affine-simplify", "affine.simplify_ms");
    ("emit-hls-c", "emit.hls_c_ms");
  ]

(* What the parallel search costs beyond the sequential one: the
   syntheses jobs=1 needs for the same designs against those jobs=2 makes,
   the domains-mode scheduler counters, and Stage 2 in procs mode. *)
let parallel_extras inputs =
  let each f =
    List.filter_map
      (fun inp ->
        match f inp with
        | Ok v -> Some v
        | Error e ->
            Printf.eprintf "%s: %s\n%!" (Inputs.label inp) e;
            None)
      inputs
  in
  let syntheses ~jobs =
    each (fun inp -> Fork.call (compile_in_child ~traced:true ~jobs inp))
    |> List.fold_left (fun a s -> a + List.assoc "hls.syntheses" s.deltas) 0
  in
  let j1 = syntheses ~jobs:1 and j2 = syntheses ~jobs:2 in
  let engines ?clean_exit mode =
    each (fun inp -> Fork.call ?clean_exit (engine_in_child ~mode inp))
  in
  let dom = engines Pom.Par.Domains in
  let procs = engines ~clean_exit:true Pom.Par.Procs in
  let mean f xs = Stats.mean (List.map f xs) in
  [
    ("par.useful_ratio", float_of_int j1 /. float_of_int (max 1 j2));
    ("par.chunks", mean (fun e -> float_of_int e.chunks) dom);
    ("par.steals", mean (fun e -> float_of_int e.steals) dom);
    ("par.splits", mean (fun e -> float_of_int e.splits) dom);
    ("par.occupancy", mean (fun e -> e.occupancy) dom);
    ("par.procs_stage2_ms", 1000.0 *. mean (fun e -> e.stage2_s) procs);
  ]

(* What a workload run yields; the serve workload's too. *)
type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  raw : (string * float) list;
      (** time metrics as measured, before calibration *)
  slowdown : float;  (** this run's machine against the reference (Calib) *)
  details : Json.t;
      (** untraced: sample count, p90 where the tail rule allows it, and
          per-input medians, for the run file; traced: the pass
          attribution, for the layer file *)
}

(* p50 is the Harrell-Davis estimate: a cold run holds only six or more
   compiles of the input its median falls on, and one compile at jobs=2
   varies by 10-13%, so a single order statistic moved by twice as much
   from run to run.

   p90 is only trustworthy with ten samples beyond it (Stats.tail_percentile),
   which dnn-large's few compiles never have, so it is no end-to-end metric:
   a run reports it next to its sample count where the rule allows. *)
let p50 samples_ms = Stats.harrell_davis 0.5 samples_ms

let latency_summary samples_ms =
  let n = List.length samples_ms in
  let p90 = Stats.tail_percentile 0.9 samples_ms in
  Printf.printf "latency over %d samples: p50 %.3f ms, p90 %s\n" n (p50 samples_ms)
    (match p90 with
    | Some v -> Printf.sprintf "%.3f ms" v
    | None -> "omitted (fewer than 10 samples beyond it)");
  [
    ("samples", Json.Num (float_of_int n));
    ("latency_ms_p90", match p90 with Some v -> Json.Num v | None -> Json.Null);
  ]

let median_by_label samples f =
  List.sort_uniq compare (List.map (fun s -> s.label) samples)
  |> List.map (fun l ->
         let mine = List.filter (fun s -> s.label = l) samples in
         (l, Stats.median (List.map f mine)))

(* Record one traced request: the parent's view (fork to reap) around the
   child's constructor call and Pom.compile, whose pass records become
   sequential children ending where the compile returned. *)
let record_spans spans ~req s =
  let add ?parent name t0 t1 = Spans.add spans ?parent ~req name t0 t1 in
  let top = add "request" s.t_fork s.t_reaped in
  ignore (add ~parent:top "harness.fork" s.t_fork s.t_start);
  ignore (add ~parent:top "frontend.build" s.t_build s.t_compile);
  let compile = add ~parent:top "compile" s.t_compile s.t_compiled in
  ignore
    (List.fold_right
       (fun (name, wall) t_end ->
         ignore (add ~parent:compile name (t_end -. wall) t_end);
         t_end -. wall)
       s.passes s.t_compiled);
  let s0, s1 = s.t_synth in
  ignore (add ~parent:top "hls.synthesize_direct" s0 s1);
  ignore (add ~parent:top "harness.reap" s.t_done s.t_reaped)

type tally = { mutable attempted : int; mutable failed : int }

let golden_key ~jobs (inp : Inputs.t) =
  Golden.key ~input:inp.Inputs.id
    ~framework:(Inputs.framework_name inp.Inputs.framework)
    ~jobs

(* One cold compile, checked against the golden rows.  With [cal] the
   child is calibrated as it runs (Calib.call). *)
let sample ~golden ~jobs ~tally ?cal ~traced inp =
  tally.attempted <- tally.attempted + 1;
  let child = compile_in_child ~traced ~jobs inp in
  let reply, timeline =
    match cal with
    | Some cal -> Calib.call cal child
    | None -> (Fork.call child, [ (Float.neg_infinity, Float.infinity, 1.0) ])
  in
  match reply with
  | Ok s ->
      let t_reaped = now () in
      let window = (s.t_build, s.t_compiled) in
      let latency_s = Calib.running timeline window in
      let s =
        {
          s with
          t_reaped;
          latency_s;
          busy_s = Calib.running timeline (s.t_fork, t_reaped);
          slowdown = latency_s /. Calib.at_ref timeline window;
        }
      in
      let key jobs = golden_key ~jobs inp in
      Golden.check golden ~key:(key jobs) s.design;
      (* parallel search must find the sequential design *)
      if jobs > 1 then Golden.check golden ~key:(key 1) s.design;
      Some s
  | Error e ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "%s: compile failed: %s\n%!" (Inputs.label inp) e;
      None

(* The end-to-end metrics: whole seeded rounds of calibrated compiles. *)
let measure ~inputs ~jobs ~seed ~seconds ~(sample : ?cal:Calib.t -> traced:bool -> _) =
  let t_begin = now () in
  let setup_raw, setup_s =
    (* a probe is one process, whatever the compile's width *)
    let cal = Calib.start () in
    Calib.medians (List.init setup_repeats (fun _ -> Calib.measure cal probe_ready))
  in
  let cal = Calib.start ~width:jobs () in
  (* whole rounds only, so every input weighs the same in each run *)
  let rec rounds salt acc last =
    if salt > 0 && now () -. t_begin +. last > seconds then List.rev acc
    else
      let r0 = now () in
      let order = Stats.shuffle (Stats.rng ~seed ~salt) inputs in
      let r = List.filter_map (sample ~cal ~traced:false) order in
      rounds (salt + 1) (r :: acc) (now () -. r0)
  in
  let rounds = rounds 0 [] 0.0 in
  let samples = List.concat rounds in
  let by_input = median_by_label samples latency_ms in
  List.iter (fun (l, m) -> Printf.printf "  %-24s median %10.3f ms as measured\n" l m) by_input;
  Printf.printf "%d cold compiles of %d inputs in %d rounds\n" (List.length samples)
    (List.length inputs) (List.length rounds);
  (* per-input medians, so one slow round moves no input's value; [at_ref]
     puts a sample's duration at the reference speed *)
  let med f = List.map snd (median_by_label samples f) in
  let times ~at_ref =
    let lat = List.map (fun s -> at_ref s (latency_ms s)) samples in
    (* compile time of a round: fork to reap of each of its compiles *)
    let round_s r = List.fold_left (fun a s -> a +. at_ref s s.busy_s) 0.0 r in
    ( [
        ("latency_ms_p50", p50 lat);
        ("latency_ms_geomean", Stats.geomean (med (fun s -> at_ref s (latency_ms s))));
        ( "throughput_per_s",
          float_of_int (List.length inputs) /. Stats.median (List.map round_s rounds) );
        ("cpu_ms_per_request", 1000.0 *. Stats.mean (med (fun s -> at_ref s s.cpu_s)));
      ],
      lat )
  in
  if samples = [] then ([], [], 1.0, Json.Null)
  else
    let calibrated, lat = times ~at_ref:(fun (s : sample) v -> v /. s.slowdown) in
    let raw, _ = times ~at_ref:(fun _ v -> v) in
    let peak_kb = List.fold_left Float.max 0.0 (med (fun s -> float_of_int s.rss_kb)) in
    ( (("setup_s", setup_s) :: calibrated)
      @ [
          ("peak_rss_mb", peak_kb /. 1024.0);
          ("qor_speedup_geomean", Stats.geomean (med (fun s -> s.speedup)));
        ],
      ("setup_s", setup_raw) :: raw,
      Stats.median (List.map (fun (s : sample) -> s.slowdown) samples),
      Json.Obj
        (latency_summary lat
        @ [
            ("rounds", Json.Num (float_of_int (List.length rounds)));
            ( "input_median_ms_as_measured",
              Json.Obj (List.map (fun (l, m) -> (l, Json.Num m)) by_input) );
          ]) )

(* The per-layer metrics.  The scheduler extras of a parallel workload run
   first; then rounds of traced and untraced compiles of each input, in
   seeded order, fill the time.  The first round's traced compiles always
   run, so every input gets its layer numbers. *)
let trace ~inputs ~jobs ~seed ~seconds ~spans ~(sample : ?cal:Calib.t -> traced:bool -> _) =
  let t_begin = now () in
  let extras = if jobs = 1 then [] else parallel_extras inputs in
  let last_cost = Hashtbl.create 16 in
  let fits inp =
    let cost =
      Option.value (Hashtbl.find_opt last_cost (Inputs.label inp)) ~default:0.0
    in
    now () -. t_begin +. cost <= seconds
  in
  let run_one ~traced inp =
    let s = sample ~traced inp in
    Option.iter
      (fun s -> Hashtbl.replace last_cost s.label (s.t_reaped -. s.t_fork))
      s;
    Option.to_list s
  in
  let rec rounds salt traced plain last =
    if salt > 0 && now () -. t_begin +. last > seconds then (traced, plain)
    else
      let r0 = now () in
      let st = Stats.rng ~seed ~salt in
      let step (traced, plain) inp =
        let t () = if salt = 0 || fits inp then run_one ~traced:true inp else [] in
        let p () = if fits inp then run_one ~traced:false inp else [] in
        if Random.State.bool st then
          let t = t () in
          (traced @ t, plain @ p ())
        else
          let p = p () in
          (traced @ t (), plain @ p)
      in
      let traced, plain =
        List.fold_left step (traced, plain) (Stats.shuffle st inputs)
      in
      rounds (salt + 1) traced plain (now () -. r0)
  in
  let traced, plain = rounds 0 [] [] 0.0 in
  List.iteri (fun i s -> record_spans spans ~req:i s) traced;
  let overheads =
    let plain_med = median_by_label plain latency_ms in
    List.filter_map
      (fun (l, m) -> Option.map (fun p -> (l, m /. p)) (List.assoc_opt l plain_med))
      (median_by_label traced latency_ms)
  in
  let per_req f = Stats.mean (List.map f traced) in
  let total name =
    List.fold_left (fun a s -> a + List.assoc name s.deltas) 0 traced
  in
  let ratio hits calls =
    if calls = 0 then 0.0 else float_of_int hits /. float_of_int calls
  in
  let pass_ms pass s =
    1000.0 *. Option.value (List.assoc_opt pass s.passes) ~default:0.0
  in
  let compile_ms s = (s.t_compiled -. s.t_compile) *. 1000.0 in
  let passes_ms s =
    1000.0 *. List.fold_left (fun a (_, w) -> a +. w) 0.0 s.passes
  in
  let count name s = float_of_int (List.assoc name s.deltas) in
  let metrics =
    List.map (fun (pass, name) -> (name, per_req (pass_ms pass))) pass_layers
    @ List.map (fun name -> (name, per_req (count name))) counter_names
    @ [
        ("frontend.build_ms", per_req (fun s -> (s.t_compile -. s.t_build) *. 1000.0));
        ("core.compile_other_ms", per_req (fun s -> compile_ms s -. passes_ms s));
        ("hls.synthesize_us", per_req (fun s -> (snd s.t_synth -. fst s.t_synth) *. 1e6));
        ("emit.hls_c_bytes", per_req (fun s -> float_of_int s.hls_c_bytes));
        (* every cacheable projection does an exact lookup first *)
        ( "poly.fm_hit_ratio",
          ratio
            (total "poly.fm_exact_hits" + total "poly.fm_param_hits")
            (total "poly.fm_exact_hits" + total "poly.fm_exact_misses") );
        ( "memo.report_hit_ratio",
          ratio (total "memo.report_hits")
            (total "memo.report_hits" + total "memo.report_misses") );
        ( "harness.fork_ms",
          Stats.median
            (List.map (fun s -> (s.t_start -. s.t_fork) *. 1000.0) (traced @ plain)) );
        ( "harness.trace_overhead",
          if overheads = [] then 1.0 else Stats.geomean (List.map snd overheads) );
      ]
    @ extras
  in
  (* per input: the median share of the compile the pass records account
     for, and the pass that costs most *)
  let attribution (label, compile) =
    let mine = List.filter (fun s -> s.label = label) traced in
    let passes =
      List.map
        (fun (p, _) -> (p, Stats.median (List.map (pass_ms p) mine)))
        (List.hd mine).passes
    in
    let biggest, biggest_ms =
      List.fold_left
        (fun (bp, bm) (p, m) -> if m > bm then (p, m) else (bp, bm))
        ("", 0.0) passes
    in
    let coverage = Stats.median (List.map (fun s -> passes_ms s /. compile_ms s) mine) in
    Json.Obj
      [
        ("input", Json.Str label);
        ("compile_ms", Json.Num compile);
        ("pass_coverage", Json.Num coverage);
        ("biggest_pass", Json.Str biggest);
        ("biggest_pass_share", Json.Num (biggest_ms /. compile));
        ("passes_ms", Json.Obj (List.map (fun (p, m) -> (p, Json.Num m)) passes));
        ( "trace_overhead",
          match List.assoc_opt label overheads with
          | Some r -> Json.Num r
          | None -> Json.Null );
      ]
  in
  let inputs = List.map attribution (median_by_label traced compile_ms) in
  (metrics, Json.Obj [ ("inputs", Json.Arr inputs) ])

let run ~inputs ~jobs ~seed ~seconds ~trace:traced_run ~golden ~spans =
  Golden.expect golden (List.map (golden_key ~jobs) inputs);
  let tally = { attempted = 0; failed = 0 } in
  let sample = sample ~golden ~jobs ~tally in
  let metrics, raw, slowdown, details =
    if traced_run then
      let metrics, details = trace ~inputs ~jobs ~seed ~seconds ~spans ~sample in
      (metrics, [], 1.0, details)
    else measure ~inputs ~jobs ~seed ~seconds ~sample
  in
  let { attempted; failed } = tally in
  { attempted; failed; metrics; raw; slowdown; details }
