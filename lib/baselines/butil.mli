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

(** Computes joined by the specification's fusion structure
    ({!Pom_dsl.Func.structure}). *)
val fused_computes : Func.t -> string list

(** The locality tiling as a pipeline pass, appending its
    directives to the state ([exclude_fused] skips computes named in
    structural fusion directives, whose nests must stay aligned). *)
val locality_tiling_pass :
  ?tile:int ->
  exclude_fused:bool ->
  unit ->
  Pom_pipeline.State.t Pom_pipeline.Pass.t
