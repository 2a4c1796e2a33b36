(** Per-statement synthesis profile extracted from the polyhedral IR: loop
    structure in schedule order, unroll/pipeline attributes, body
    characterization, and loop-carried dependences in the transformed
    iteration space (so the model sees exactly what the generated loop
    nest exposes) — analyzed, or derived exactly from the statement a
    re-tiling started from. *)

open Pom_polyir

type loop = {
  dim : string;
  extent : int;  (** bounding trip count of this level *)
  unroll : int;  (** materialized unroll copies (1 = none) *)
  pipelined : bool;
  target_ii : int;
}

(** One loop-carried dependence: for each schedule level that carries it
    (1-based, outermost first), the minimal carried distance. *)
type dep = (int * int) list

type t = {
  stmt : Stmt_poly.t;
  loops : loop list;  (** schedule order, outermost first *)
  total_points : int;  (** exact |domain| (transform-invariant) *)
  body : Opchar.body;
  deps : dep list;
  carried : (int * int option) list list;
      (** per read access, in order: {!Pom_poly.Dep.carried_distances} of
          the write against it ([[]] when it carries nothing).  {!deps} is
          this with the empty reads and unbounded distances dropped; a
          statement re-tiled from this one derives its own from it. *)
  group : int;  (** leading scalar schedule constant (fusion group) *)
  access_dims : (string * string list list) list;
      (** one entry per memory access instance (loads and the store):
          array name and, per array dimension, the schedule dimensions that
          index depends on — accesses not indexed by an unrolled dimension
          are broadcast and cost one port operation, not one per copy, and
          partitioning an array dimension only multiplies the banks
          reachable by accesses that actually vary along it *)
  rectangular : bool;
      (** the domain is a full box (loop nest perfectly flattenable) *)
}

(** The loop structure of a statement — {!t.loops} — without the
    dependence analysis: what the DSE's pre-pruning signature compares. *)
val loops_of : Stmt_poly.t -> loop list

(** How a statement was re-tiled from its parent: Stage 2's realizations
    only strip-mine the innermost levels of a stage-1 statement.  Levels
    are 1-based, in schedule order. *)
type retiling =
  | Same  (** hardware attributes only: the parent's dependences *)
  | Split of int  (** level [l] split into levels [l] and [l + 1] *)
  | Tile of int
      (** levels [l] and [l + 1] tiled into [l .. l + 3]
          (outer, outer, inner, inner) *)

(** [of_stmt s] profiles [s].  Its dependences and loop extents come from
    the dependence memo, keyed on the problem [s] poses and no name
    ({!Pom_poly.Dep.key} over {!ordered_domain}, plus the domain's own
    dimension tuple): a hit, such as a statement of a shape profiled
    before, runs no analysis and no projection.  With [~parent:(p, r)],
    [s] is [p.stmt] re-tiled by [r]: its dependences are derived from
    [p]'s by the level rule, and only the levels the rule cannot derive
    are analyzed.  The result is the one a full analysis gives; it goes
    through the same memo, under [s]'s own key.  A [Same] re-tiling poses
    its parent's problem and takes [p]'s dependences and extents without
    a lookup. *)
val of_stmt : ?parent:t * retiling -> Stmt_poly.t -> t

(** [unanalyzed s] is [of_stmt s] with {!t.deps} and {!t.carried} empty,
    and runs no dependence analysis.  Only a price that reads no
    dependence may use it: the sequential latency of statements with no
    unrolled level and no partitioned array, which is the speedup
    baseline's ({!Report.baseline_latency}). *)
val unanalyzed : Stmt_poly.t -> t

(** [profile stmts] profiles each statement in order: a DSE candidate
    re-profiles only the statements it changed. *)
val profile : Stmt_poly.t list -> t list

(** Every statement of a program, in program order. *)
val profile_all : Prog.t -> t list

(** 1-based pipeline level, if any. *)
val pipeline_level : t -> int option

(** Transformed accesses of a statement: the write access and the read
    accesses with indices over the current (scheduled) dimensions. *)
val transformed_accesses :
  Stmt_poly.t -> Pom_poly.Dep.access * Pom_poly.Dep.access list

(** The statement's domain with its dimension tuple in schedule order, so
    that {!Pom_poly.Dep}'s lexicographic levels are its loop levels: the
    domain the dependences of {!t.deps} are analyzed over. *)
val ordered_domain : Stmt_poly.t -> Pom_poly.Basic_set.t

(** Dependence-analysis memo counters since process start as
    [(hits, misses)] — the cache is keyed on the statement's dependence
    problem, which its hardware attributes and names do not change, so a
    DSE search that revisits a schedule skeleton with different hardware
    attributes, or profiles a statement of a shape it has seen, hits. *)
val dep_cache_stats : unit -> int * int

val pp : Format.formatter -> t -> unit
