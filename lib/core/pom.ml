(* every name read by perfbench/cold.ml *)
module Par = struct
  let set_jobs (_ : int) = ()

  type mode = Domains | Procs

  let set_mode (_ : mode) = ()

  module Chunks = struct
    type stats = Pom_dse.Stage2.sched = {
      chunks : int;
      steals : int;
      splits : int;
    }

    let occupancy (_ : stats) = 1.0
  end
end

module Poly = Pom_poly
module Dsl = Pom_dsl
module Depgraph = Pom_depgraph
module Polyir = Pom_polyir
module Affine = Pom_affine
module Emit = Pom_emit
module Sim = Pom_sim
module Hls = Pom_hls
module Dse = Pom_dse
module Baselines = Pom_baselines
module Workloads = Pom_workloads
module Cfront = Pom_cfront
module Pipeline = Pom_pipeline
module Analysis = Pom_analysis
module Resilience = Pom_resilience
module Refute = Pom_refute

open Pom_pipeline

type framework =
  [ `Baseline | `Pluto | `Polsca | `Scalehls | `Pom_manual | `Pom_auto ]

type compiled = {
  framework : framework;
  prog : Pom_polyir.Prog.t;
  report : Pom_hls.Report.t;
  hls_c : string;
  dse_time_s : float;
  dse_cpu_s : float;
  tile_vectors : (string * int list) list;
  baseline_latency : int;
  passes : Pass.record list;
  diags : Pom_analysis.Diagnostic.t list;
  legality_violations : int;
  trace : string list;
}

(* The head of each flow: everything up to (but excluding) the shared
   synthesize/lower/simplify/emit tail.  Searching flows (`Scalehls,
   `Pom_auto) fill the program slot themselves; the others accumulate
   directives and apply them with the shared schedule-apply pass. *)
let head_passes ?checkpoint framework =
  match framework with
  | `Baseline -> [ Passes.structural (); Passes.schedule_apply () ]
  | `Pluto -> Baselines.Pluto.passes () @ [ Passes.schedule_apply () ]
  | `Polsca -> Baselines.Polsca.passes () @ [ Passes.schedule_apply () ]
  | `Scalehls -> Baselines.Scalehls.passes ?checkpoint ()
  | `Pom_manual -> [ Passes.user_schedule (); Passes.schedule_apply () ]
  | `Pom_auto -> Dse.Engine.passes ?checkpoint ()

(* The degradation contract, per pass.  A required pass produces the
   artifact the compile exists to deliver — skipping it cannot yield a
   usable result, so its failure always aborts with the typed error.
   Everything else (directive accumulation, legality/lint/verify analyses)
   degrades to a POM3xx warning diagnostic under [--on-error degrade]. *)
let required_passes =
  [
    "schedule-apply";
    "hls-synthesize";
    "affine-lower";
    "affine-simplify";
    "emit-hls-c";
    "stage1-transform";
    "stage2-search";
    "scalehls-greedy-dse";
  ]

let guard_pipeline ps =
  List.map
    (fun (p : State.t Pass.t) ->
      Passes.guard ~required:(List.mem p.Pass.info.Pass.name required_passes) p)
    ps

let compile ?(device = Pom_hls.Device.xc7z020) ?(framework = `Pom_auto)
    ?(dnn = false) ?(dump_after = []) ?(verify_each = false)
    ?jobs:(_ : int option) ?deadline_s ?(on_error = Pom_resilience.Policy.Abort)
    ?checkpoint func =
  Pom_resilience.Policy.with_policy on_error @@ fun () ->
  Pom_resilience.Budget.with_budget ?deadline_s @@ fun () ->
  (* The speedup baseline profiles the input program, so it can fail or run
     out of budget like a pass; it is required, so any failure aborts with
     the typed error a required pass raises (exit 3), never a bare
     exception. *)
  let baseline_latency =
    match Pom_hls.Report.baseline_latency func with
    | latency -> latency
    | exception (Pom_resilience.Fault.Killed _ as e) -> raise e
    | exception e ->
        raise
          (Pom_resilience.Error.Error
             (Pom_resilience.Error.of_exn ~code:"POM300"
                ~pass:"baseline-latency" e))
  in
  let composition, latency_mode =
    match framework with
    | `Scalehls ->
        (Pom_hls.Resource.Dataflow, if dnn then `Dataflow else `Sequential)
    | `Baseline | `Pluto | `Polsca | `Pom_manual | `Pom_auto ->
        (Pom_hls.Resource.Reuse, `Sequential)
  in
  let pipeline =
    guard_pipeline
      (head_passes ?checkpoint framework
      @ [ Passes.legality_check (); Passes.lint_pragmas () ]
      @ Passes.tail ())
  in
  let instruments = State.instruments ~dump_after ~verify_each () in
  let st, records =
    Pass.run ~instruments pipeline
      (State.init ~composition ~latency_mode ~device func)
  in
  let prog =
    match st.State.prog with Some p -> p | None -> assert false
  in
  let report =
    match st.State.report with Some r -> r | None -> assert false
  in
  let hls_c =
    match st.State.hls_c with Some c -> c | None -> assert false
  in
  {
    framework;
    prog;
    report;
    hls_c;
    dse_time_s = st.State.dse_time_s;
    dse_cpu_s = st.State.dse_cpu_s;
    tile_vectors = st.State.tile_vectors;
    baseline_latency;
    passes = records;
    diags = st.State.diags;
    legality_violations = st.State.legality_violations;
    trace = st.State.trace;
  }

let mlir c =
  Pom_emit.Emit_mlir.mlir
    (Pom_affine.Passes.simplify (Pom_affine.Lower.lower c.prog))

let speedup c =
  Pom_hls.Report.speedup ~baseline:c.baseline_latency c.report

let validate func c = Pom_sim.Interp.divergence func c.prog

let check_legality func c =
  let original =
    Pom_polyir.Prog.apply_all
      (Pom_polyir.Prog.of_func_unscheduled func)
      (Pom_baselines.Butil.structural_directives func)
  in
  Pom_polyir.Legality.violations ~original ~transformed:c.prog
