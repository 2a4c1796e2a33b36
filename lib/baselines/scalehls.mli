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

(** The flow's passes (interchange, structural fusion, greedy DSE): the
    head of [Pom.compile]'s [`Scalehls] flow, which initializes the state
    with the dataflow composition and appends the shared analysis,
    synthesis and emission passes.  The greedy pass is required; it tries
    each rung with {!Pom_dse.Stage2.step}, traces one line per rung (and an
    [analyzer: N design points pruned] line when the analyzer's
    pre-pruning oracle dropped any), and fills the state's program, report,
    directives, tile vectors and evaluation count (priced rungs plus
    per-unit usage checks).

    [checkpoint] names a crash-safe journal: every priced ladder rung is
    appended as it is evaluated, and a killed run resumed against the same
    journal is served the journaled rungs and re-derives the identical
    final design (see {!Pom_dse.Stage2.start}). *)
val passes :
  ?checkpoint:string -> unit -> Pom_pipeline.State.t Pom_pipeline.Pass.t list
