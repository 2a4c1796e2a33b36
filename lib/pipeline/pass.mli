(** A named compiler pass and an instrumented pass manager, in the style of
    MLIR's pass manager: every lowering/transform step of the compile flow is
    a pass, and running a pipeline yields one {!record} per pass with
    wall-clock and CPU timing, IR statistics, the optional IR dump
    requested with [--dump-after], and the optional post-pass verification
    verdict requested with [--verify-each].

    Passes are polymorphic in the state they transform, so the same manager
    drives the end-to-end compile state ({!State.t}), the DSE engine, and
    unit tests over toy states. *)

(** A pass carries everything the pass manager asks of it: its name (the
    record's name and the [--dump-after] key), whether the compile needs
    its output ([required], read by {!guarded}), and its transformation. *)
type 's t = { name : string; required : bool; run : 's -> 's }

(** [v ~name f] creates a pass; [required] defaults to [false]. *)
val v : ?required:bool -> name:string -> ('s -> 's) -> 's t

(** [guarded ~diag p] wraps [p] in the resilience guard: the wrapped pass
    is a fault-injection site ["pass:<name>"], and any failure — including
    a {!Pom_resilience.Budget.Budget_exceeded} deadline — becomes a typed
    {!Pom_resilience.Error.t} naming the pass.  When the ambient
    {!Pom_resilience.Policy} is [Degrade] and [p] is not [required], the
    failure is recorded as a diagnostic through [diag state err] (which
    should return the state with the diagnostic attached) and the pipeline
    continues from the unmodified state; otherwise the typed error is
    raised for the driver's exit-code contract.  [Fault.Killed] always
    propagates — it simulates the process dying at that point. *)
val guarded : diag:('s -> Pom_resilience.Error.t -> 's) -> 's t -> 's t

(** What one pass did, measured by the manager. *)
type record = {
  pass : string;
  wall_s : float;  (** wall-clock seconds ([Unix.gettimeofday]) *)
  cpu_s : float;  (** CPU seconds ([Sys.time]) *)
  stats : Stats.t option;  (** post-pass IR statistics, when hooked *)
  dump : string option;  (** post-pass IR text, when requested *)
  verdict : string option;  (** post-pass verification, when requested *)
}

(** Observation hooks for a pipeline run.  [stats] is collected after every
    pass; [dump] fires only for passes named in [dump_after] (or all passes
    when the list is [["all"]]); [verify] fires after every pass when
    [verify_each] is set. *)
type 's instruments = {
  stats : ('s -> Stats.t) option;
  dump : ('s -> string) option;
  dump_after : string list;
  verify : ('s -> string) option;
  verify_each : bool;
}

(** No hooks: timing only. *)
val observe_nothing : 's instruments

(** Run the passes in order, threading the state through; returns the final
    state and one record per pass, in execution order. *)
val run : ?instruments:'s instruments -> 's t list -> 's -> 's * record list

(** One [--timing] table line: pass name, wall/CPU milliseconds, statistics,
    and the verification verdict when present. *)
val pp_record : Format.formatter -> record -> unit
