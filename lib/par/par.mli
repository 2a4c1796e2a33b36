(** Process-wide parallel-execution configuration.

    The compiler's fan-out points (dependence analysis, the dependence
    graph, the legality check, bounds verification) call {!map}/{!filter_map}
    instead of [List.map]: with [jobs () <= 1], or from inside a pool task
    (nested parallelism), these are exactly [List.map]/[List.filter_map] —
    same order, same exceptions, zero overhead — so [--jobs 1] reproduces
    the sequential compiler bit-for-bit.  With [jobs () > 1] they run on a
    lazily-created shared {!Pool.t}, preserving input order and exception
    behaviour.  The DSE searches are sequential at every budget. *)

module Pool = Pool

(** What [Domain.recommended_domain_count ()] reported at startup; the
    initial value of [jobs ()]. *)
val default_jobs : int

(** Current worker budget for the convenience wrappers. *)
val jobs : unit -> int

(** [set_jobs n] clamps [n] to at least 1 and makes it the budget for
    subsequent {!map}/{!filter_map} calls.  A shared pool of another size
    is torn down lazily on next use. *)
val set_jobs : int -> unit

(** [with_jobs n f] runs [f] with the budget set to [n], restoring the
    previous budget afterwards (also on exceptions). *)
val with_jobs : int -> (unit -> 'a) -> 'a

(** Order-preserving parallel map over the shared pool; sequential when the
    budget is 1 or when already inside a pool task. *)
val map : ('a -> 'b) -> 'a list -> 'b list

(** As {!map} for [List.filter_map]. *)
val filter_map : ('a -> 'b option) -> 'a list -> 'b list

(** {1 Names the benchmark harness compiles against} *)

(** Read by perfbench/cold.ml; both constructors select the same search. *)
type mode = Domains | Procs

(** Read by perfbench/cold.ml; a no-op. *)
val set_mode : mode -> unit

(** Read by perfbench/cold.ml; the sequential search's counters, all zero. *)
module Chunks : sig
  type stats = { chunks : int; steals : int; splits : int }

  (** Read by perfbench/cold.ml; always 1.0, the value for a run with no items. *)
  val occupancy : stats -> float
end
