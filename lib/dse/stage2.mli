(** Stage 2 of the DSE engine (Section VI-B): bottleneck-oriented code
    optimization.  Node latencies are estimated with the QoR model, data
    paths are ordered by latency, and the bottleneck node of the critical
    path has its parallelism escalated (tiling + pipelining + unrolling +
    matching array partitioning) until it stops being the bottleneck, the
    design leaves the resource budget, or its maximum parallelism is
    reached — the exit mechanism that removes it from the optimization
    list. *)

open Pom_dsl

(** The hardware directives realizing one parallelism degree on one
    compute, plus the tile-factor vector they correspond to. *)
type realization = {
  hw_directives : Schedule.t list;
  tile_vector : int list;
}

(** [realize compute loop_order extents par] produces the
    tile/pipeline/unroll directives giving [par] parallel copies on the
    innermost levels (shared with the ScaleHLS baseline, which explores the
    same move space with a different search policy). *)
val realize : string -> string list -> int list -> int -> realization

(** [partition_plan func profiles]: array-partition directives for
    [func]'s arrays matched to the unroll factors of the statements
    [profiles] describes (each profile's {!Pom_hls.Summary.t.access_dims}
    and its statement's unrolls), with the per-array bank-count cap
    ([bank_cap], default 64: beyond it the crossbar cost outweighs the
    port gain and factors are shed by halving, trading a slightly larger
    II). *)
val partition_plan :
  ?bank_cap:int -> Func.t -> Pom_hls.Summary.t list -> Schedule.t list

(** {1 Optimization units}

    A unit is one fusion group (the statements sharing a leading schedule
    constant), which both DSE searches parallelize as one.  It carries
    its realization: the hardware directives of its current parallelism,
    and its members' statements under them with their {!Pom_hls.Summary}
    profiles.  A candidate changes one unit, so it re-realizes and
    re-profiles only that unit's statements.  Only this module moves a
    unit, through {!try_move}. *)

type unit_state = private {
  id : int;  (** leading schedule constant *)
  members : (string * string list * int list) list;
      (** compute, loop order, extents after stage 1 *)
  stage1 : Pom_hls.Summary.t list;
      (** the members' stage-1 statements, program order, profiled: each
          realized statement derives its dependences from these *)
  mutable par : int;
  mutable active : bool;  (** still on Stage 2's optimization list *)
  mutable realization : realization list;  (** one per member *)
  mutable realized : Pom_hls.Summary.t list;
      (** one per member: its statement under [realization], profiled (the
          statement is the profile's [stmt]) *)
}

(** The units of a stage-1 program in schedule order, each realized at
    parallelism 1. *)
val units_of : Pom_polyir.Prog.t -> unit_state list

(** [try_move u par decide] moves [u] to parallelism [par], realizes it,
    and runs [decide].  The move sticks only when [decide] returns [true];
    on [false], or on any exception from the realization or from [decide]
    (re-raised), [u]'s parallelism, realization and realized statements
    are restored. *)
val try_move : unit_state -> int -> (unit -> bool) -> bool

(** [splice prog units] is [prog] (the stage-1 program) with each
    statement replaced by its unit's realized statement, in program order,
    paired with those statements' profiles in the same order: the
    candidate the units describe, before partitioning. *)
val splice :
  Pom_polyir.Prog.t ->
  unit_state list ->
  Pom_polyir.Prog.t * Pom_hls.Summary.t list

(** {1 The candidate step}

    Stage 2 and the ScaleHLS greedy ladder try a candidate the same way and
    differ only in search policy: which unit moves to which parallelism,
    and which priced candidate wins.  A search is set up once ({!start});
    each candidate is one {!step}. *)

(** One search in progress: the base program, the units, the group-price
    table ({!Pom_hls.Report.prices}, one per search), the incumbent design
    point and its loop signature, and the evaluation and prune counts. *)
type search

(** [start ~device ~composition func base] sets a search up: apply
    [base], build the units ({!units_of}) and price the initial design
    point, which becomes the incumbent.

    Every evaluation counts one in {!evaluations}, first visits the
    [dse:evaluate] fault site, and then checks the budget, so a deadline
    stops a search between candidates.  It splices the units into the base
    program, derives the partition plan from the spliced profiles
    ({!partition_plan} under [bank_cap]), and prices the design point with
    {!Pom_hls.Report.of_profiles} under [latency_mode], through the
    search's group-price table. *)
val start :
  ?bank_cap:int ->
  ?latency_mode:Pom_hls.Report.latency_mode ->
  device:Pom_hls.Device.t ->
  composition:Pom_hls.Resource.composition ->
  Func.t ->
  Schedule.t list ->
  search

(** What {!step} did with one candidate. *)
type outcome =
  | Accepted  (** priced and taken by the caller's rule: the new incumbent *)
  | Rejected of Pom_hls.Report.t  (** priced and refused; its report *)
  | Pruned
      (** its loop signature is the incumbent's, so it is the incumbent
          under another name (the analyzer's pre-pruning oracle): not
          priced, counted in {!pruned} *)
  | Failed of exn
      (** under {!Pom_resilience.Policy.degrading}: it raised (POM304) *)
  | Out_of_budget of string
      (** under {!Pom_resilience.Policy.degrading}: the budget ran out;
          the reason *)

(** [step s u par ~accept] tries [u] at parallelism [par] through
    {!try_move}: prune it when its loop signature equals the incumbent's,
    otherwise price it and ask [accept prog report].  On [true] it becomes
    the incumbent; on any other outcome [u] is backed out.
    {!Pom_resilience.Fault.Killed} always propagates; other exceptions
    become [Failed] or [Out_of_budget] under the degrading policy and are
    re-raised otherwise. *)
val step :
  search ->
  unit_state ->
  int ->
  accept:(Pom_polyir.Prog.t -> Pom_hls.Report.t -> bool) ->
  outcome

(** The search's units, in program order. *)
val units : search -> unit_state list

(** The search's group-price table. *)
val prices : search -> Pom_hls.Report.prices

(** The incumbent's program, full directive list (base, hardware,
    partitions) and report. *)
val incumbent :
  search -> Pom_polyir.Prog.t * Schedule.t list * Pom_hls.Report.t

(** QoR evaluations priced so far, the initial design point included. *)
val evaluations : search -> int

(** Candidates pruned so far. *)
val pruned : search -> int

(** Per compute, the units' tile/unroll factor per loop level. *)
val tile_vectors : search -> (string * int list) list

(** {1 The bottleneck} *)

(** [unit_paths paths units]: each data path ({!Stage1.t.paths}, compute
    names) as the indices into [units] of the units it crosses, in path
    order without repeats. *)
val unit_paths : string list list -> unit_state array -> int array array

(** [bottleneck ~report ~active units paths] is the index of the unit
    Stage 2 escalates next, given [report]'s group latencies: order the
    paths by latency, heaviest first (ties keep path order); on the first
    path holding a unit for which [active] holds, take its first active
    unit of maximum latency.  [None] when no path holds an active unit. *)
val bottleneck :
  report:Pom_hls.Report.t ->
  active:(int -> bool) ->
  unit_state array ->
  int array array ->
  int option

(** Read by perfbench/cold.ml (as [Pom.Par.Chunks.stats]); always zero,
    the counters of a search that schedules no work elsewhere. *)
type sched = { chunks : int; steals : int; splits : int }

type result = {
  directives : Schedule.t list;
      (** the full plan: stage-1 directives + hardware directives *)
  prog : Pom_polyir.Prog.t;
  report : Pom_hls.Report.t;
  iterations : int;
  tile_vectors : (string * int list) list;
      (** per compute: achieved tile/unroll factor per loop level *)
  trace : string list;
      (** human-readable decision log of the bottleneck search *)
  evaluations : int;
      (** QoR-model evaluations requested by the search (the
          deterministic counterpart of the DSE-time column) *)
  pruned : int;
      (** candidate design points dropped by the analyzer's pre-pruning
          oracle ({!Pom_analysis.Lint.profiles_signature}) without being
          priced: their loop signature is the incumbent's *)
  sched : sched;  (** read by perfbench/cold.ml *)
}

(** [run func stage1] performs the bottleneck-oriented search.  The
    parallelism degree per node is capped at 64; [bank_cap] bounds
    partition banks per array; [steps] is the user-specifiable strategy
    group of Section VI-B — given a node's current parallelism it returns
    the candidate degrees to try, first hit wins (default: double, then
    1.5x as a fallback).  The result is the incumbent the search ends
    at, as it was priced.

    The search is sequential: the paper's bottleneck-oriented search
    decides each step from the previous step's report, so one input always
    walks to one design, and a killed search recovers by running again.
    It stops after 60 iterations; when that cap, not the exit mechanism,
    ends it, the trace says how many units were still on the optimization
    list. *)
val run :
  ?device:Pom_hls.Device.t ->
  ?composition:Pom_hls.Resource.composition ->
  ?bank_cap:int ->
  ?steps:(int -> int list) ->
  Func.t ->
  Stage1.t ->
  result
