(** The Pluto comparator: automatic polyhedral locality optimization
    targeting multi-core CPUs — tiles for cache locality and parallelizes
    outer loops, but emits no FPGA-oriented pragmas (no pipelining, no
    unrolling, no array partitioning).  On an FPGA the resulting design
    executes essentially sequentially, which is the Fig. 2 observation. *)

(** The flow's transform passes (tiling, structural fusion): the head of
    [Pom.compile]'s [`Pluto] flow, which appends schedule application and
    the shared analysis, synthesis and emission passes. *)
val passes : unit -> Pom_pipeline.State.t Pom_pipeline.Pass.t list
