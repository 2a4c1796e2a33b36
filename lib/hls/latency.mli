(** The latency half of the virtual HLS synthesizer: achieved initiation
    intervals and cycle counts per fusion group.

    II = max(target, RecMII, ResMII, serial-issue bound) where RecMII stems
    from loop-carried dependences at the pipelined level (with unrolled
    accumulation chains lengthening the recurrence), ResMII from memory-port
    pressure (2 ports per array bank, banks = array-partition product), and
    the serial bound from inner iterations left neither unrolled nor
    flattened. *)

type group_eval = {
  group : int;
  pipelined : bool;
  achieved_ii : int;  (** 1 when not pipelined *)
  latency : int;
  depth : int;
  (* statement name -> physical operator copies after II sharing *)
  phys_copies : (string * int) list;
}

(** [eval_group ~partitions profiles] evaluates one fusion group (all
    profiles share the leading scalar constant).  [partitions] maps an
    array name to its per-dimension partition factors ([[]] or all-ones if
    unpartitioned). *)
val eval_group : partitions:(string -> int list) -> Summary.t list -> group_eval

(** Evaluate every group of a program; returns the groups in execution
    order and the total (summed) latency. *)
val eval_program :
  partitions:(string -> int list) -> Summary.t list -> group_eval list * int

(** Port operations and reachable banks of one [Summary.access_dims] entry
    whose copies are the unrolls of [loops]: one operation per distinct
    address; a partition factor multiplies the banks only along array
    dimensions whose index varies between copies. *)
val access_ports :
  partitions:(string -> int list) ->
  loops:Summary.loop list ->
  string * string list list ->
  int * int

(** Latency without pipelining; of the untransformed, unannotated program,
    the paper's "original C code without any optimization" baseline.
    Raises [Failure] when the cycle count overflows ({!Pom_dsl.Count}). *)
val sequential_latency :
  partitions:(string -> int list) -> Summary.t list -> int

(** Materialized parallel copies of one statement: the product of its
    unroll factors over the levels that do not carry a dependence (unrolled
    copies along a dependence-carrying level form a serial chain, not
    parallelism).  This is the quantity the static analyzer's profitability
    oracle compares between DSE candidates. *)
val effective_unroll : Summary.t -> int

(** Recurrence-limited minimum II of one statement when pipelined at
    [level] (1-based, outermost first): the dependence-chain bound the
    achieved II can never beat, independent of partitioning.  [1] when no
    dependence constrains the level. *)
val recurrence_mii : level:int -> Summary.t -> int
