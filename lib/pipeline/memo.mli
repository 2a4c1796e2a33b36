(** Memoization of the two expensive polyhedral evaluations a compile
    repeats: directive application (building a scheduled {!Pom_polyir.Prog.t}
    from a function and a directive list) and virtual HLS report synthesis.

    Entries are keyed by a structural fingerprint of the function plus the
    printed directive list (and, for reports, the device and composition
    mode), so two requests with the same key are guaranteed to describe the
    same design point.  Stage 2 of the DSE re-asks for the final design
    point after the search, and the compile tail synthesizes it again; both
    become cache hits, which the engine reports in its trace. *)

open Pom_dsl

(** Hit/miss counters, cumulative over the cache's lifetime. *)
type counters = {
  mutable schedule_hits : int;
  mutable schedule_misses : int;
  mutable report_hits : int;
  mutable report_misses : int;
  mutable plan_hits : int;
      (** always 0: there is no plan table; perfbench/cold.ml reads it *)
  mutable plan_misses : int;  (** always 0, like [plan_hits] *)
}

type t

(** [max_entries] (default 4096) bounds each table: exceeding it on insert
    drops that table wholesale, so long benchmark sweeps do not retain
    every design point ever evaluated.

    Every table computes a missing entry once and stores it; a computation
    that raises stores nothing, so the next request for that key computes
    again (one more miss).  The tables and counters sit under one mutex,
    which a compile daemon's executor thread and an in-process client
    compiling on another thread may contend for. *)
val create : ?max_entries:int -> unit -> t

(** The process-wide cache used by default: sharing it across the DSE
    engine, the baselines, and the pipeline's synthesis pass is what lets a
    re-synthesis of an already-evaluated design point (e.g. the final DSE
    winner, or a [--trace] re-run) cost a lookup instead of a synthesis. *)
val global : t

val counters : t -> counters

(** A snapshot copy (for before/after deltas). *)
val snapshot : t -> counters

(** [schedule cache func directives] is
    [List.fold_left Prog.apply (Prog.of_func_unscheduled func) directives],
    cached.  [fkey] and [dkey], when given, must be [func_key func] and
    [directives_key directives]: a DSE search keys its function and its
    base prefix once and passes the keys to every lookup. *)
val schedule :
  ?fkey:string ->
  ?dkey:string ->
  t ->
  Func.t ->
  Schedule.t list ->
  Pom_polyir.Prog.t

(** [synthesize_profiled cache ~fkey ~device ~dkey prog profiles] is the
    synthesis report of [prog], one design point of the function
    fingerprinted [fkey] under the directive list keyed [dkey]
    ({!directives_key}): only on a cache miss does it call [profiles] for
    [prog]'s statement profiles (program order) and price them with
    {!Pom_hls.Report.of_profiles}, through the search's group-price table
    [prices] when given.  The memo stores the report alone: the caller
    holds the program. *)
val synthesize_profiled :
  t ->
  fkey:string ->
  ?prices:Pom_hls.Report.prices ->
  ?composition:Pom_hls.Resource.composition ->
  ?latency_mode:Pom_hls.Report.latency_mode ->
  device:Pom_hls.Device.t ->
  dkey:string ->
  Pom_polyir.Prog.t ->
  (unit -> Pom_hls.Summary.t list) ->
  Pom_hls.Report.t

(** [synthesize cache ~device ~directives prog] is {!synthesize_profiled}
    for a caller holding no profiles: [prog] is the function's program
    under [directives], profiled whole on a miss. *)
val synthesize :
  t ->
  ?composition:Pom_hls.Resource.composition ->
  ?latency_mode:Pom_hls.Report.latency_mode ->
  device:Pom_hls.Device.t ->
  directives:Schedule.t list ->
  Pom_polyir.Prog.t ->
  Pom_hls.Report.t

val clear : t -> unit

(** {1 Key fingerprints}

    The structural fingerprints the memo tables key on, exported so
    other caches (the compile server's cross-request response cache)
    can key on exactly the same identity the memo uses.  [func_key]
    deliberately excludes the function's attached directives — callers
    caching whole compiles must mix in {!directives_key} of
    [Func.directives] themselves. *)

val func_key : Func.t -> string

(** The directives printed ({!Pom_dsl.Schedule.to_string}) and joined with
    [';']. *)
val directives_key : Schedule.t list -> string

(** [join_keys] joins directive keys with [';'], skipping empty ones:
    [join_keys [directives_key a; directives_key b]] is
    [directives_key (a @ b)]. *)
val join_keys : string list -> string

val device_key : Pom_hls.Device.t -> string

(** The report-memo key for one design point — the key the checkpoint
    journal records, stable across processes (a structural fingerprint, no
    addresses or hashes of mutable state). *)
val report_key :
  fkey:string ->
  composition:Pom_hls.Resource.composition ->
  latency_mode:Pom_hls.Report.latency_mode ->
  device:Pom_hls.Device.t ->
  dkey:string ->
  string

(** Observe every genuinely computed report, with the program it prices
    ([None] unhooks): fires on misses only, with the lock released, before
    the report is stored.  The DSE checkpoint appends each observed report
    to its journal; replayed points enter through {!restore_report} and
    never re-fire it. *)
val set_report_observer :
  t -> (key:string -> Pom_polyir.Prog.t -> Pom_hls.Report.t -> unit) option ->
  unit

(** Seed a settled report under [key] without counting a hit or a miss and
    without firing the observer — checkpoint replay, making a resumed
    search behave as if its cache were warm.  A key already settled is left
    alone. *)
val restore_report : t -> key:string -> Pom_hls.Report.t -> unit

(** [with_journal t (Some path) f]: open the checkpoint journal at [path],
    replay its intact [(key, report)] records into the report memo, journal
    every genuinely computed report while [f] runs, and unhook/close
    however [f] exits.  [f] receives trace notes (how many points were replayed, or
    that the journal was unreadable and dropped — POM306).
    [with_journal t None f] is [f []]. *)
val with_journal : t -> string option -> (string list -> 'a) -> 'a
