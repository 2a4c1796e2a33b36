(** The ScaleHLS comparator: the first MLIR HLS flow, reimplemented at the
    strategy level.  It shares POM's move space (interchange, tiling,
    pipelining, unrolling, partitioning) but differs in exactly the ways
    the paper identifies:

    - single-IR loop transformations only: no loop distribution, no
      skewing, no re-fusion — a fused nest gets one interchange applied to
      every statement, so conflicting dependence requirements (BICG) leave
      one statement tight;
    - greedy program-order design-space exploration instead of
      bottleneck-oriented search, so early loops exhaust the budget
      (the 2MM/3MM allocation of Table III);
    - no operator reuse across loops (dataflow composition): resources sum,
      and its per-loop budget check under-counts global banking overhead,
      which is how its DNN designs exceed 100% utilization (Table V);
    - degraded search at very large problem sizes (>= 8192): only basic
      pipelining is applied (Fig. 12). *)

open Pom_dsl

type result = {
  directives : Schedule.t list;
  prog : Pom_polyir.Prog.t;
  report : Pom_hls.Report.t;
  dse_time_s : float;
  tile_vectors : (string * int list) list;
  evaluations : int;
  pruned : int;
      (** ladder rungs dropped by the analyzer's pre-pruning oracle before
          synthesis (treated like factor saturation: backed out, climb
          continues) *)
}

(** The flow's passes (interchange, structural fusion, greedy DSE — the
    greedy pass fills the state's program/report slots itself and reports
    the full search [result] through [on_result]), for embedding in a
    larger pipeline.  Initialize the state with the dataflow composition
    and the intended latency mode.  The greedy pass tries each rung with
    {!Pom_dse.Stage2.step} and traces one line per rung.

    [checkpoint] names a crash-safe journal: every priced ladder rung is
    appended as it is evaluated, and a killed run resumed against the same
    journal is served the journaled rungs and re-derives the identical
    final design (see {!Pom_dse.Stage2.start}). *)
val passes :
  ?checkpoint:string ->
  ?on_result:(result -> unit) ->
  unit ->
  Pom_pipeline.State.t Pom_pipeline.Pass.t list

val run : ?device:Pom_hls.Device.t -> ?dnn:bool -> Func.t -> result
