(** Stage 1 of the DSE engine (Section VI-A): dependence-aware code
    transformation.  The dependence graph is traversed, loop-carried
    dependences are checked per node, and loop interchange / splitting
    (distribution) / skewing / re-fusion are applied iteratively until no
    node keeps a tight innermost dependence or the iteration bound is hit.

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

(** [run func] plans dependence-aware transformations for every compute of
    [func].  User-provided fusion ([After]/[Fuse] directives at level >= 1)
    defines the initial fusion groups; conflicting per-node requirements
    split the group (Fig. 10) and compatible transformed nodes are
    conservatively re-fused. *)
val run : ?max_iterations:int -> Func.t -> t
