(** The POLSCA comparator: Pluto's schedule driven into an HLS back-end —
    locality tiling plus loop pipelining, but no dependence-aware
    restructuring, no unrolling, and no array partitioning for large
    problem sizes.  Loop-carried dependences left in the Pluto schedule
    dominate the achieved II (the paper's Section VII-B analysis). *)

(** The flow's transform passes (tiling, structural fusion, pipelining):
    the head of [Pom.compile]'s [`Polsca] flow, which appends schedule
    application and the shared analysis, synthesis and emission passes. *)
val passes : unit -> Pom_pipeline.State.t Pom_pipeline.Pass.t list
