(** POM — an end-to-end optimizing framework for FPGA accelerator
    generation, reproducing Zhang et al., HPCA 2024.

    This is the public facade: write an algorithm in the DSL
    ({!Dsl.Func}, {!Dsl.Compute}), pick a schedule (manual primitives or
    {!compile} with [`Pom_auto]), and get back a synthesis report from the
    virtual HLS back-end plus generated HLS C.

    {[
      let f = Pom.Workloads.Polybench.gemm 1024 in
      let c = Pom.compile ~framework:`Pom_auto f in
      print_string c.Pom.hls_c;
      Format.printf "%a@." Pom.Hls.Report.pp c.Pom.report
    ]}

    Every flow is an instrumented pass pipeline ({!Pipeline.Pass}) and
    {!compile} is the one way a framework's flow runs: it assembles the
    flow's passes, guards each one by the degradation contract it
    declares, and returns one timing/statistics record per pass. *)

(** Re-exported subsystem entry points. *)

(** Names the benchmark harness compiles against.  The compiler runs on
    one thread; none of these configure or report anything. *)
module Par : sig
  (** Read by perfbench/cold.ml; a no-op. *)
  val set_jobs : int -> unit

  (** Read by perfbench/cold.ml; both constructors select the same search. *)
  type mode = Domains | Procs

  (** Read by perfbench/cold.ml; a no-op. *)
  val set_mode : mode -> unit

  (** Read by perfbench/cold.ml. *)
  module Chunks : sig
    (** Read by perfbench/cold.ml; the counters of {!Dse.Stage2.result},
        always zero. *)
    type stats = Pom_dse.Stage2.sched = {
      chunks : int;
      steals : int;
      splits : int;
    }

    (** Read by perfbench/cold.ml; always 1.0. *)
    val occupancy : stats -> float
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

(** Deadlines, typed failures, graceful degradation, the crash-safe
    journal behind the compile daemon's durable response cache, client
    retry, and deterministic fault injection ({!Resilience.Budget},
    {!Resilience.Policy}, {!Resilience.Error}, {!Resilience.Checkpoint},
    {!Resilience.Retry}, {!Resilience.Fault}). *)
module Resilience = Pom_resilience

(** Which optimization flow to run. *)
type framework =
  [ `Baseline  (** the input program, unoptimized *)
  | `Pluto  (** locality tiling, CPU-oriented (no pragmas) *)
  | `Polsca  (** Pluto schedule + pipelining, no partitioning *)
  | `Scalehls  (** single-IR interchange + greedy DSE, dataflow resources *)
  | `Pom_manual  (** apply the function's own scheduling primitives *)
  | `Pom_auto  (** the two-stage DSE engine ([f.auto_DSE()]) *) ]

type compiled = {
  framework : framework;
  directives : Pom_dsl.Schedule.t list;
      (** the flow's full directive list, in application order *)
  prog : Pom_polyir.Prog.t;
  report : Pom_hls.Report.t;
  affine : Pom_affine.Ir.func;
      (** the annotated affine function the [affine-simplify] pass built:
          what the HLS C, {!mlir} and the C testbench are emitted from *)
  hls_c : string;  (** generated HLS C *)
  dse_time_s : float;  (** wall-clock search time; 0 for non-searching flows *)
  evaluations : int;
      (** QoR evaluations the flow's search made; 0 without a search *)
  tile_vectors : (string * int list) list;  (** empty for non-DSE flows *)
  baseline_latency : int;
  passes : Pom_pipeline.Pass.record list;
      (** one instrumentation record per executed pass, in order *)
  diags : Pom_analysis.Diagnostic.t list;
      (** analyzer diagnostics from the verify-ir and lint-pragmas passes *)
  legality_violations : int;
      (** reversed dependences found by the legality-check pass *)
  trace : string list;
      (** decision log: DSE search trace, legality verdicts *)
}

(** Compile a DSL function end-to-end through the selected flow.  [dnn]
    switches the ScaleHLS baseline to its dataflow composition; POM always
    reuses resources across loops.

    [dump_after] names passes whose post-pass IR should be captured in the
    matching {!Pipeline.Pass.record} ([["all"]] captures every pass);
    [verify_each] re-checks polyhedral legality after every pass.

    [jobs] is ignored: perfbench/cold.ml still passes it, and the compiler
    runs on one thread.

    Resilience controls: [deadline_s] installs a cooperative
    {!Resilience.Budget} for the whole compile — the polyhedral kernels,
    legality proof, and both DSE searches check it and raise
    [Budget_exceeded] when it runs out.  [on_error] selects what a failed
    or timed-out pass does: [Abort] (the default) re-raises the typed
    {!Resilience.Error.Error}; [Degrade] records a POM3xx diagnostic and
    applies each pass's documented fallback (assume the dependence, reject
    the transform, keep the DSE incumbent) — passes that produce the final
    artifact always abort.  Both searches are deterministic, so a compile
    killed mid-search recovers by running again: the rerun walks to the
    identical design. *)
val compile :
  ?device:Pom_hls.Device.t ->
  ?framework:framework ->
  ?dnn:bool ->
  ?dump_after:string list ->
  ?verify_each:bool ->
  ?jobs:int ->
  ?deadline_s:float ->
  ?on_error:Pom_resilience.Policy.t ->
  Pom_dsl.Func.t ->
  compiled

val speedup : compiled -> float

(** The annotated affine-dialect IR as textual MLIR (the Fig. 9 (d)
    artifact), with HLS information as [hls.*] attributes. *)
val mlir : compiled -> string

(** Check a compiled schedule against the specification on small inputs
    with the functional simulator; returns the max elementwise divergence
    from the reference program ({!Pom_polyir.Prog.reference}). *)
val validate : Pom_dsl.Func.t -> compiled -> float

(** Prove the compiled schedule legal against the specification's
    reference program ({!Pom_polyir.Prog.reference}, the one {!validate}
    runs) with the polyhedral dependence checker (no execution, any
    problem size); returns the reversed dependences ([[]] = legal). *)
val check_legality :
  Pom_dsl.Func.t -> compiled -> Pom_polyir.Legality.violation list
