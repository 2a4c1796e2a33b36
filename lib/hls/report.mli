(** The virtual Vitis front door: synthesize a scheduled program into the
    figures a Vitis HLS synthesis + Vivado implementation report would
    give — latency, achieved II, resource usage and utilization, power —
    plus the paper's derived parallelism metric (tile-size product divided
    by achieved II). *)

type t = {
  latency : int;  (** total cycles *)
  group_latencies : (int * int) list;  (** (group id, cycles) *)
  iis : (int * int) list;  (** (group id, achieved II) for pipelined groups *)
  usage : Resource.usage;
  power : float;
  feasible : bool;  (** fits the device *)
  parallelism : float;
  unroll_products : (string * int) list;  (** statement -> unrolled copies *)
}

(** How group latencies compose: [`Sequential] sums them (loops execute one
    after another); [`Dataflow] overlaps them in a task pipeline whose
    throughput is set by the slowest stage, with a stall factor for
    unmatched producer/consumer paces (Fig. 13's ScaleHLS mode). *)
type latency_mode = [ `Sequential | `Dataflow ]

(** Per-dimension partition factors of an array in a scheduled program. *)
val partition_fn : Pom_polyir.Prog.t -> string -> int list

(** Group prices one search reuses across the design points it prices.
    A program is priced group by group: each fusion group's latency
    evaluation and area (operators plus on-chip buffers), then the
    program-wide sums over the groups.  A group's price is reused while
    the group holds the same profiles (physically equal, element-wise)
    and every array it touches keeps its partition factors.  Each group
    keeps its two newest prices: a search's incumbent and its candidate.
    A table serves one device. *)
type prices

val prices : unit -> prices

(** [of_profiles ~device prog profiles] prices a scheduled program whose
    statements [profiles] describes, in program order ([prog] supplies the
    array partitioning).  The one pricing function: a DSE search hands it
    the profiles it already holds instead of re-profiling every statement,
    and its own [prices] table (default: a fresh one) so that only the
    groups a candidate changed are priced again. *)
val of_profiles :
  ?prices:prices ->
  ?composition:Resource.composition ->
  ?latency_mode:latency_mode ->
  device:Device.t ->
  Pom_polyir.Prog.t ->
  Summary.t list ->
  t

(** [group_usage prices ~device prog profiles] is the operator area
    ({!Resource.group_usage}, no BRAM) of the fusion group [profiles]
    under [prog]'s partitioning, read from [prices] or priced into it. *)
val group_usage :
  prices -> device:Device.t -> Pom_polyir.Prog.t -> Summary.t list -> Resource.usage

(** [synthesize ~device prog] is {!of_profiles} on
    [Summary.profile_all prog]. *)
val synthesize :
  ?composition:Resource.composition ->
  ?latency_mode:latency_mode ->
  device:Device.t ->
  Pom_polyir.Prog.t ->
  t

(** Process-wide number of {!of_profiles} calls so far: a memo layered on
    top of synthesis can assert a cache hit left this unchanged. *)
val synth_count : unit -> int

(** Cycles of the original unoptimized program (schedule directives
    stripped): the denominator-free baseline of every speedup in the
    paper.  It equals {!Latency.sequential_latency} over
    [Summary.profile_all] of that program, but runs no dependence
    analysis ({!Summary.unanalyzed}): with no unroll and no partition no
    cost reads one. *)
val baseline_latency : Pom_dsl.Func.t -> int

val speedup : baseline:int -> t -> float

(** Wall-clock latency in milliseconds at the device's target clock. *)
val latency_ms : Device.t -> t -> float

val pp : Format.formatter -> t -> unit
