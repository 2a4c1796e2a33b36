(* Read by perfbench/cold.ml; Basic_set.project_out caches nothing. *)

type stats = {
  exact_hits : int;
  exact_misses : int;
  param_hits : int;
  param_misses : int;
}

let stats () =
  { exact_hits = 0; exact_misses = 0; param_hits = 0; param_misses = 0 }
