(** The area half of the virtual HLS synthesizer: DSP/LUT/FF accumulation
    from physical operator copies, memory-access logic, and array-partition
    banking overhead. *)

type usage = { dsp : int; lut : int; ff : int; bram : int (** BRAM18 blocks *) }

val zero : usage

val add : usage -> usage -> usage

val max_usage : usage -> usage -> usage

(** How sequential groups compose: [Reuse] shares operators across groups
    (POM's resource reuse; area = max over groups), [Dataflow] instantiates
    each group separately (ScaleHLS's dataflow mode; area = sum). *)
type composition = Reuse | Dataflow

(** Operator/register area of one group (no banking or base overhead) —
    what a per-loop resource estimate sees. *)
val group_usage : Summary.t list -> Latency.group_eval -> usage

(** The arrays a set of profiles touches, each once, with its size in
    bits. *)
val arrays_of : Summary.t list -> (string * int) list

(** [group_bram ~device ~partitions arrays]: BRAM18 blocks buffering one
    group's [arrays] ({!arrays_of} of its profiles).  An array small enough
    for on-chip storage takes at least one block per partition bank;
    larger arrays live in external memory and consume no BRAM, as the
    evaluation's 4096x4096 matrices must. *)
val group_bram :
  device:Device.t -> partitions:(string -> int list) -> (string * int) list -> int

(** [combine ~composition ~partitions groups arrays] is a program's usage:
    its per-group usages [groups] (operators plus {!group_bram}) composed
    by [composition], plus the banking logic of each distinct name in
    [arrays] (the arrays of every group; repeats count once) and the base
    control overhead. *)
val combine :
  composition:composition ->
  partitions:(string -> int list) ->
  usage list ->
  string list ->
  usage

(** BRAM18 blocks available on a device. *)
val bram18_blocks : Device.t -> int

(** Dynamic + static power (Watts) as an affine function of utilization. *)
val power : usage -> float

val fits : Device.t -> usage -> bool

val pp : Format.formatter -> usage -> unit
