open Pom_dsl

(* Open extension point: flows built on top of the pipeline (e.g. the DSE
   engine) thread their own intermediate results through the state without
   this library depending on their types. *)
type ext = ..

type t = {
  device : Pom_hls.Device.t;
  composition : Pom_hls.Resource.composition;
  latency_mode : Pom_hls.Report.latency_mode;
  func : Func.t;
  directives : Schedule.t list;
  prog : Pom_polyir.Prog.t option;
  report : Pom_hls.Report.t option;
  affine : Pom_affine.Ir.func option;
  hls_c : string option;
  dse_time_s : float;
  evaluations : int;
  tile_vectors : (string * int list) list;
  diags : Pom_analysis.Diagnostic.t list;
  legality_violations : int;
  trace : string list;
  ext : ext list;
}

let add_ext e t = { t with ext = e :: t.ext }

let find_ext f t = List.find_map f t.ext

let init ?(composition = Pom_hls.Resource.Reuse) ?(latency_mode = `Sequential)
    ~device func =
  {
    device;
    composition;
    latency_mode;
    func;
    directives = [];
    prog = None;
    report = None;
    affine = None;
    hls_c = None;
    dse_time_s = 0.0;
    evaluations = 0;
    tile_vectors = [];
    diags = [];
    legality_violations = 0;
    trace = [];
    ext = [];
  }

let stats t =
  let base =
    match t.prog with
    | Some prog -> Stats.of_prog prog
    | None -> Stats.zero
  in
  let base = { base with Stats.directives = List.length t.directives } in
  match t.affine with
  | Some f -> Stats.with_affine f base
  | None -> base

let dump t =
  match (t.hls_c, t.affine, t.prog) with
  | Some c, _, _ -> c
  | None, Some f, _ -> Pom_emit.Emit_mlir.mlir f
  | None, None, Some prog -> Format.asprintf "%a" Pom_polyir.Prog.pp prog
  | None, None, None -> "(no IR constructed yet)"

let instruments ?(dump_after = []) () =
  { Pass.stats = Some stats; dump = Some dump; dump_after }
