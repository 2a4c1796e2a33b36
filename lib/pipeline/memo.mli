(** Structural fingerprints of a compile's inputs: the identity the compile
    server's response cache ([Protocol.cache_key]) and a DSE search's
    checkpoint journal key on.  Two inputs with equal fingerprints
    describe the same design point.

    There is no design-point cache here: each flow applies its directives
    and prices its design point once, and a search keeps the points it
    prices itself.  The counter record, {!global} and {!snapshot} remain
    only because perfbench/cold.ml compiles against them; every count is
    0. *)

open Pom_dsl

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

(** The function's name, statement bodies, iterator bounds and array
    shapes and types.  It deliberately excludes the function's attached
    directives: callers keying whole compiles must mix in
    {!directives_key} of [Func.directives] themselves. *)
val func_key : Func.t -> string

(** The directives printed ({!Pom_dsl.Schedule.to_string}) and joined with
    [';']. *)
val directives_key : Schedule.t list -> string

val device_key : Pom_hls.Device.t -> string
