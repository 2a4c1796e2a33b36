(** Shared helpers for the reimplemented comparator frameworks. *)

open Pom_dsl

(** Pluto-style locality tiling: strip-mine every dimension whose extent
    reaches [2 * tile] and hoist the tile loops outward, per compute.
    Returns the directives and, per compute, the resulting loop order. *)
val locality_tiling :
  ?tile:int ->
  ?exclude:string list ->
  Func.t ->
  Schedule.t list * (string * string list) list

(** Computes named in any structural fusion directive. *)
val fused_computes : Func.t -> string list

(** The user's structural fusion directives (to be preserved verbatim). *)
val structural_directives : Func.t -> Schedule.t list

(** The locality tiling as a registered pipeline pass, appending its
    directives to the state ([exclude_fused] skips computes named in
    structural fusion directives, whose nests must stay aligned). *)
val locality_tiling_pass :
  ?tile:int ->
  exclude_fused:bool ->
  unit ->
  Pom_pipeline.State.t Pom_pipeline.Pass.t

(** Final (directives, program, report) of a finished pipeline state;
    raises when a flow left either IR slot empty. *)
val extract :
  Pom_pipeline.State.t ->
  Schedule.t list * Pom_polyir.Prog.t * Pom_hls.Report.t
