(** The two-stage DSE driver (the [f.auto_DSE()] primitive), reified as an
    instrumented pass pipeline: dependence-aware transformation
    ([stage1-transform]) then bottleneck-oriented optimization
    ([stage2-search]), each a pass with its own timing record.
    The search time that Table III reports as the toolchain's runtime is
    the wall clock both passes add to the state's [dse_time_s]. *)

type outcome = {
  stage1 : Stage1.t;
  result : Stage2.result;
  records : Pom_pipeline.Pass.record list;  (** per-pass instrumentation *)
}

(** Each stage's output, threaded through {!Pom_pipeline.State.t}[.ext]:
    Stage 1's from the stage1-transform pass to the stage2-search pass,
    which runs only after it (a state without it is a misassembled
    pipeline, [Invalid_argument]), and both to {!run}. *)
type Pom_pipeline.State.ext +=
  | Stage1_output of Stage1.t
  | Stage2_output of Stage2.result

(** The engine's two passes over the shared compile state, both required,
    for embedding in a larger pipeline (the [`Pom_auto] compile flow).
    The device and composition are read from the state; stage2-search
    sets the state's program, report, directives, tile vectors and
    evaluation count from {!Stage2.result}.  [bank_cap] is forwarded to
    {!Stage2.run}. *)
val passes :
  ?bank_cap:int ->
  unit ->
  Pom_pipeline.State.t Pom_pipeline.Pass.t list

(** Run {!passes} alone on [func], with the default reuse composition,
    and return both stages' outputs.  [jobs] is ignored:
    perfbench/cold.ml still passes it, and the compiler runs on one
    thread. *)
val run :
  ?device:Pom_hls.Device.t ->
  ?bank_cap:int ->
  ?jobs:int ->
  Pom_dsl.Func.t ->
  outcome
