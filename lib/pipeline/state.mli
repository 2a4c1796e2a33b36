(** The end-to-end compile state threaded through {!Pass.run}: one record
    holding the function, the target device, the directives accumulated by
    the flow's transform passes, and each IR level as it is produced
    (polyhedral program → synthesis report → annotated affine → HLS C).
    Passes fill the slots left-to-right; instrumentation reads whichever
    levels exist. *)

open Pom_dsl

(** Open extension point for flow-private intermediate results: a flow
    declares its own [State.ext += ...] constructor and threads values
    through {!t.ext} between its passes (e.g. the DSE engine hands stage 1's
    output to the stage 2 pass this way), without this library depending on
    the flow's types. *)
type ext = ..

type t = {
  device : Pom_hls.Device.t;
  composition : Pom_hls.Resource.composition;
  latency_mode : Pom_hls.Report.latency_mode;
  func : Func.t;
  directives : Schedule.t list;  (** accumulated, in application order *)
  prog : Pom_polyir.Prog.t option;
  report : Pom_hls.Report.t option;
  affine : Pom_affine.Ir.func option;
  hls_c : string option;
  dse_time_s : float;  (** wall-clock DSE time (0 for non-searching flows) *)
  evaluations : int;
      (** QoR evaluations the flow's search made (0 for non-searching
          flows) *)
  tile_vectors : (string * int list) list;
  diags : Pom_analysis.Diagnostic.t list;
      (** analyzer output accumulated by the verify/lint passes, in order *)
  legality_violations : int;
      (** reversed dependences counted by the legality-check pass *)
  trace : string list;  (** decision/verification log, in order *)
  ext : ext list;  (** flow-private extensions, most recent first *)
}

(** Prepend an extension value. *)
val add_ext : ext -> t -> t

(** First extension value recognized by [f], most recent first. *)
val find_ext : (ext -> 'a option) -> t -> 'a option

val init :
  ?composition:Pom_hls.Resource.composition ->
  ?latency_mode:Pom_hls.Report.latency_mode ->
  device:Pom_hls.Device.t ->
  Func.t ->
  t

(** Statistics of the most-lowered IR present. *)
val stats : t -> Stats.t

(** Textual dump of the most-lowered IR present (HLS C, else textual MLIR
    of the affine level, else the polyhedral program). *)
val dump : t -> string

(** Pass-manager hooks observing this state: statistics and dumps are
    wired to {!stats} and {!dump}; [dump_after] comes from the caller (the
    CLI's [--dump-after]). *)
val instruments : ?dump_after:string list -> unit -> t Pass.instruments
