(** A named compiler pass and an instrumented pass manager, in the style of
    MLIR's pass manager: every lowering/transform step of the compile flow is
    a pass, and running a pipeline yields one {!record} per pass with
    wall-clock and CPU timing, IR statistics, and the optional IR dump
    requested with [--dump-after].

    Passes are polymorphic in the state they transform, so the same manager
    drives the end-to-end compile state ({!State.t}), the DSE engine, and
    unit tests over toy states. *)

(** A pass carries everything the pass manager asks of it: its name (the
    record's name and the [--dump-after] key), what it does when it fails
    under [--on-error degrade] ([degrade], read by {!guarded}), and its
    transformation.  A pass without a [degrade] fallback aborts the
    compile when it fails, under either policy. *)
type 's t = {
  name : string;
  degrade : ('s -> Pom_resilience.Error.t -> 's) option;
  run : 's -> 's;
}

(** [v ~name f] creates a pass; without [degrade] it has no fallback. *)
val v :
  ?degrade:('s -> Pom_resilience.Error.t -> 's) ->
  name:string ->
  ('s -> 's) ->
  's t

(** [guarded p] wraps [p] in the resilience guard: the wrapped pass is a
    fault-injection site ["pass:<name>"], and any failure — including a
    {!Pom_resilience.Budget.Budget_exceeded} deadline — becomes a typed
    {!Pom_resilience.Error.t} naming the pass.  When the ambient
    {!Pom_resilience.Policy} is [Degrade] and [p] declares a fallback, the
    pass returns [fallback state err], where [state] is the state the pass
    was given; otherwise the typed error is raised for [pom_compile]'s
    exit-code contract.  [Fault.Killed] always propagates — it simulates
    the process dying at that point. *)
val guarded : 's t -> 's t

(** What one pass did, measured by the manager. *)
type record = {
  pass : string;
  wall_s : float;  (** wall-clock seconds ([Unix.gettimeofday]) *)
  cpu_s : float;  (** CPU seconds ([Sys.time]) *)
  stats : Stats.t option;  (** post-pass IR statistics, when hooked *)
  dump : string option;  (** post-pass IR text, when requested *)
}

(** Observation hooks for a pipeline run.  [stats] is collected after every
    pass; [dump] fires only for passes named in [dump_after] (or all passes
    when the list is [["all"]]). *)
type 's instruments = {
  stats : ('s -> Stats.t) option;
  dump : ('s -> string) option;
  dump_after : string list;
}

(** No hooks: timing only. *)
val observe_nothing : 's instruments

(** Run the passes in order, threading the state through; returns the final
    state and one record per pass, in execution order. *)
val run : ?instruments:'s instruments -> 's t list -> 's -> 's * record list

(** One [--timing] table line: pass name, wall/CPU milliseconds and
    statistics. *)
val pp_record : Format.formatter -> record -> unit
