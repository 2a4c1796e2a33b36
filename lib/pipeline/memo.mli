(** The counter record, {!global} and {!snapshot} remain only because
    perfbench/cold.ml compiles against them; every count is 0.  There is
    no design-point cache: each flow applies its directives and prices its
    design point once, and a search keeps the points it prices itself. *)

(** Always zero. *)
type counters = {
  schedule_hits : int;
  schedule_misses : int;
  report_hits : int;
  report_misses : int;
  plan_hits : int;
  plan_misses : int;
}

type t

val global : t

(** All zeros. *)
val snapshot : t -> counters
