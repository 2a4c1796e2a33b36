(** Counters of the Fourier–Motzkin projection cache this library no
    longer has.  Kept only because [perfbench/cold.ml] reads them; every
    count is zero. *)

type stats = {
  exact_hits : int;
  exact_misses : int;
  param_hits : int;
  param_misses : int;
}

val stats : unit -> stats
