(** Stage 1 of the DSE engine (Section VI-A): dependence-aware code
    transformation, one pass over the dependence graph.  Each node's
    loop-carried dependences suggest keeping its loop order,
    interchanging, or skewing then interchanging (a node no
    transformation frees stays tight); each user fusion group is kept as
    specified, or, when its members share no data edge, distributed,
    transformed and re-fused (Fig. 10).

    The output is a transformation plan: a list of DSL scheduling
    directives that, applied to the unscheduled program, realize the
    dependence-alleviated loop structure. *)

open Pom_dsl

type node_plan = {
  compute : string;
  final_order : string list;
      (** loop order after the plan, over (possibly skewed) dim names *)
  skewed : bool;
  tight : bool;  (** dependence could not be alleviated *)
}

type t = {
  directives : Schedule.t list;
  nodes : node_plan list;
  iterations : int;  (** analyze/transform rounds used *)
  paths : string list list;
      (** the dependence graph's data paths ({!Pom_depgraph.Graph.data_paths}),
          which Stage 2 orders by latency *)
}

(** [realize_order compute current desired]: the interchange directives
    that turn [compute]'s loop order [current] into [desired]. *)
val realize_order : string -> string list -> string list -> Schedule.t list

(** [run func] plans dependence-aware transformations for every compute of
    [func].  User-provided fusion ([After]/[Fuse] directives at level >= 1)
    defines the initial fusion groups; conflicting per-node requirements
    split the group (Fig. 10) and compatible transformed nodes are
    conservatively re-fused. *)
val run : Func.t -> t
