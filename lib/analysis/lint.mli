(** Dependence-aware lint of the HLS directives carried by a scheduled
    polyhedral program: every check compares a requested pragma against the
    loop-carried dependence structure (re-analyzed in the transformed
    iteration space) or against the port arithmetic of the partitioning —
    the silent QoR sinks ScaleHLS/Phism-style flows hit in practice.

    Codes emitted:
    - [POM200] (error): the lint itself could not analyze the program.
    - [POM201] (warning): requested [pipeline_ii] below the minimum
      recurrence II forced by a loop-carried dependence at the pipelined
      level.
    - [POM202] (warning): a partial unroll of a dependence-carrying level —
      the copies serialize into a chain instead of running in parallel.
      (A full unroll is exempt: the loop dissolves into a dependence chain
      the QoR model prices, the standard reduction idiom.)
    - [POM203] (warning): concurrent port demand of the unrolled body
      exceeds what the array partitioning can serve (2 ports per bank) —
      a bank conflict that inflates the achieved II.
    - [POM204] (hint): a dead partition — no unrolled access varies along
      the partitioned dimension, so the extra banks serve no concurrency.
    - [POM205] (warning): a non-dividing factor (unroll vs trip count,
      partition vs array extent) leaving remainder iterations or uneven
      banks.
    - [POM206] (warning): conflicting directives — pipeline and unroll
      requested on the same loop.
    - [POM207] (error): malformed partition directive (unknown array, rank
      mismatch, non-positive factor). *)

val lint : Pom_polyir.Prog.t -> Diagnostic.t list

(** The latency-determining hardware structure of a scheduled program:
    per statement (sorted by name), the loop nest as
    [(dim, extent, unroll, pipelined, target_ii)] per level.  Two programs
    with equal signatures (under the same schedule prefix) describe the
    same design point to the QoR model. *)
type hw_signature = (string * (string * int * int * bool * int) list) list

(** Computed from the loop structure alone ({!Pom_hls.Summary.loops_of}):
    no dependence analysis. *)
val hw_signature : Pom_polyir.Prog.t -> hw_signature

(** The signature of the statements [profiles] describe — equal to
    {!hw_signature} of their program, read from profiles a search already
    holds.  It is the DSE pre-pruning oracle: factor clamping (per-level
    caps, extent saturation) makes distinct parallelism requests collapse
    onto the same realization, and a candidate whose signature is the
    incumbent's is the incumbent under another name — identical latency
    and resources — so the search drops it before pricing it. *)
val profiles_signature : Pom_hls.Summary.t list -> hw_signature
