(** Operator characterization at the 100 MHz target clock — per-operation
    latency and resource costs in the style of the COMBA / ScaleHLS QoR
    models the paper uses for estimation ([35], [38]).  Costs depend on the
    data type (Table I's "ability of data type customization"): flops
    approximate Vitis HLS floating-point cores on 7-series fabric, narrow
    integer arithmetic maps to LUT/carry logic, and 16+-bit multiplies to
    DSP48 slices. *)

type cost = { latency : int; dsp : int; lut : int; ff : int }

(** Arithmetic costs for a given operand type. *)
val add_cost : Pom_dsl.Dtype.t -> cost

val mul_cost : Pom_dsl.Dtype.t -> cost

val div_cost : Pom_dsl.Dtype.t -> cost

val minmax_cost : Pom_dsl.Dtype.t -> cost

(** 32-bit floating-point shorthands (the evaluation's default type). *)

val fadd : cost

val fmul : cost

val fdiv : cost

val fminmax : cost

(** BRAM/interface read; writes complete in [store.latency]. *)
val load : cost

val store : cost

(** Static analysis of a statement body (a DSL expression plus its store):
    dataflow-critical-path latency, per-kind operation counts, and memory
    accesses per array per execution.  Costs are taken for the statement's
    destination data type. *)
type body = {
  dtype : Pom_dsl.Dtype.t;
  crit_path : int;  (** cycles from first load to store completion *)
  n_fadd : int;  (** adds + subs (same core) *)
  n_fmul : int;
  n_fdiv : int;
  n_fminmax : int;
  accesses : (string * int) list;  (** array -> loads+stores per execution *)
}

val analyze_body : Pom_dsl.Compute.t -> body

(** Resource cost of [copies] parallel instances of a body's operators. *)
val body_resources : body -> copies:int -> cost

(** Latency of the dominant arithmetic stage alone (per chained link). *)
val chain_arith_latency : body -> int
