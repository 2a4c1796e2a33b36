(** The two-stage DSE driver (the [f.auto_DSE()] primitive), reified as an
    instrumented pass pipeline: dependence-aware transformation
    ([stage1-transform]) then bottleneck-oriented optimization
    ([stage2-search]), each a registered pass with its own timing record.
    The search time that Table III reports as the toolchain's runtime is
    wall clock; CPU time is accounted separately. *)

type outcome = {
  stage1 : Stage1.t;
  result : Stage2.result;
  dse_time_s : float;  (** wall-clock search time ([Unix.gettimeofday]) *)
  dse_cpu_s : float;  (** CPU search time ([Sys.time]) *)
  records : Pom_pipeline.Pass.record list;  (** per-pass instrumentation *)
}

(** Stage 1's output, threaded through {!Pom_pipeline.State.t}[.ext] from
    the stage1-transform pass to the stage2-search pass, which runs only
    after it: a state without it is a misassembled pipeline
    ([Invalid_argument]). *)
type Pom_pipeline.State.ext += Stage1_output of Stage1.t

(** The engine's two passes over the shared compile state, for embedding in
    a larger pipeline (the [`Pom_auto] compile flow).  The device and
    composition are read from the state; [on_stage1]/[on_result] observe the
    intermediate results. *)
val passes :
  ?par_cap:int ->
  ?bank_cap:int ->
  ?steps:(int -> int list) ->
  ?cache:Pom_pipeline.Memo.t ->
  ?checkpoint:string ->
  ?on_stage1:(Stage1.t -> unit) ->
  ?on_result:(Stage2.result -> unit) ->
  unit ->
  Pom_pipeline.State.t Pom_pipeline.Pass.t list

(** [jobs] is ignored: perfbench/cold.ml still passes it, and the
    compiler runs on one thread.  [checkpoint] is forwarded to
    {!Stage2.run}: the chosen design is identical across a kill-and-resume
    of a checkpointed search. *)
val run :
  ?device:Pom_hls.Device.t ->
  ?composition:Pom_hls.Resource.composition ->
  ?par_cap:int ->
  ?bank_cap:int ->
  ?steps:(int -> int list) ->
  ?cache:Pom_pipeline.Memo.t ->
  ?jobs:int ->
  ?checkpoint:string ->
  Pom_dsl.Func.t ->
  outcome
