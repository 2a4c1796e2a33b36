(** Dependence analysis on polyhedral semantics.

    Given the iteration domain of a statement and two affine accesses to the
    same array, the dependence polyhedron is the set of (source, sink)
    iteration pairs that touch the same element with the source preceding
    the sink in the original lexicographic execution order.  Distances
    (Section II-A of the paper) are extracted by optimizing
    [sink_k - source_k] over that polyhedron, level by level. *)

(** An affine array access: index expressions over the domain dimensions. *)
type access = { array : string; indices : Linexpr.t list }

val access : string -> Linexpr.t list -> access

(** [key ~domain ~write ~reads] names the dependence problem of [write]
    against each of [reads] over [domain] by exactly what an analysis
    reads: the dimension tuple and constraints of [domain], the indices of
    [write], and per read its indices and whether it reads the written
    array — never a statement or an array name.  The bytes are an
    injective encoding, so two calls with equal keys ask the same
    questions of {!analyze} and {!carried_distances} and get the same
    answers: statements of one shape share one analysis. *)
val key : domain:Basic_set.t -> write:access -> reads:access list -> string

(** Distance range for one loop level: min/max of [sink_k - source_k]. *)
type entry = { dmin : int option; dmax : int option }

(** A dependence carried at loop level [level] (1-based, outermost = 1):
    outer levels are equal, and the sink follows the source at [level]. *)
type level_dep = {
  level : int;
  distance : entry list;  (** one entry per loop level *)
}

type t = { carried : level_dep list  (** non-empty; one per carrying level *) }

(** [analyze ~domain ~source ~sink] computes the dependence between the two
    accesses within a single statement's loop nest (source instance writes
    or reads [source], sink instance accesses [sink]; the caller decides
    which pairing — RAW, WAR, WAW — it is probing).  [None] when no pair of
    distinct-ordered instances conflicts.  Accesses to different arrays
    never conflict. *)
val analyze : domain:Basic_set.t -> source:access -> sink:access -> t option

(** [carried_distances ~domain ~source ~sink ()] is the part of {!analyze}
    that the QoR model reads: for each carrying level, outermost first, the
    level and its minimal distance at that same level ([None] when
    unbounded).  [[]] exactly when {!analyze} is [None]; otherwise it
    equals [(ld.level, (List.nth ld.distance (ld.level - 1)).dmin)] over
    [analyze]'s carried levels, without building the other distance
    entries.  A test that runs out of budget raises
    {!Pom_resilience.Budget.Budget_exceeded}, as {!analyze} does: no
    answer is ever assumed.

    [levels] (ascending, 1-based; default every level) restricts the test
    to those levels: the result is then the full result's entries at
    [levels].  A caller that already knows the other levels' entries, such
    as the dependences of a re-tiled statement derived from its parent's,
    tests only the levels it cannot derive. *)
val carried_distances :
  ?levels:int list ->
  domain:Basic_set.t ->
  source:access ->
  sink:access ->
  unit ->
  (int * int option) list
