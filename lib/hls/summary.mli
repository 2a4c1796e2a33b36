(** Per-statement synthesis profile extracted from the polyhedral IR: loop
    structure in schedule order, unroll/pipeline attributes, body
    characterization, and loop-carried dependences re-analyzed in the
    transformed iteration space (so the model sees exactly what the
    generated loop nest exposes). *)

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

val of_stmt : Prog.t -> Stmt_poly.t -> t

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
    [(hits, misses)] — the cache is keyed on the hardware-stripped
    statement, so a DSE search that revisits a schedule skeleton with
    different hardware attributes should hit almost always. *)
val dep_cache_stats : unit -> int * int

val pp : Format.formatter -> t -> unit
