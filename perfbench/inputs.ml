(* The programs each workload compiles, named as they appear in the golden
   file.  Constructors are thunks: the cold workloads call them inside the
   forked child, where the call is timed as the frontend layer. *)

module P = Pom.Workloads.Polybench
module I = Pom.Workloads.Image
module D = Pom.Workloads.Dnn

type t = {
  id : string;
  framework : Pom.framework;
  dnn : bool;
  build : unit -> Pom.Dsl.Func.t;
}

let framework_name = function
  | `Pom_auto -> "pom"
  | `Scalehls -> "scalehls"
  | `Baseline -> "baseline"
  | `Pluto -> "pluto"
  | `Polsca -> "polsca"
  | `Pom_manual -> "pom-manual"

let pom id build = { id; framework = `Pom_auto; dnn = false; build }

(* Table III (PolyBench @4096), Table VII (stencils), the image kernels of
   Table V, and the generality set's PolyBench kernels.  Each round compiles
   every input once, so with an odd count (15) the median over a run's
   compiles falls in the middle of one input's samples, not in the gap
   between two inputs' where it would depend on their extremes. *)
let tables =
  [
    pom "gemm-4096" (fun () -> P.gemm 4096);
    pom "bicg-4096" (fun () -> P.bicg 4096);
    pom "gesummv-4096" (fun () -> P.gesummv 4096);
    pom "2mm-4096" (fun () -> P.mm2 4096);
    pom "3mm-4096" (fun () -> P.mm3 4096);
    pom "atax-4096" (fun () -> P.atax 4096);
    pom "mvt-4096" (fun () -> P.mvt 4096);
    pom "syrk-1024" (fun () -> P.syrk 1024);
    pom "trmm-1024" (fun () -> P.trmm 1024);
    pom "jacobi-1d-4096" (fun () -> P.jacobi1d 4096);
    pom "jacobi-2d-4096" (fun () -> P.jacobi2d 4096);
    pom "seidel-t8-256" (fun () -> P.seidel ~tsteps:8 256);
    pom "edge-detect-4096" (fun () -> I.edge_detect 4096);
    pom "gaussian-4096" (fun () -> I.gaussian 4096);
    pom "blur-4096" (fun () -> I.blur 4096);
  ]

(* Table V's networks under POM and under ScaleHLS's dataflow
   composition. *)
let dnn =
  List.concat_map
    (fun (name, build) ->
      [ pom name build; { id = name; framework = `Scalehls; dnn = true; build } ])
    [ ("vgg16", D.vgg16); ("resnet18", D.resnet18) ]

(* Unique per (program, flow): the unit latency medians are taken over. *)
let label t = t.id ^ "/" ^ framework_name t.framework

(* ---- serve-zipf design points ---- *)

type point = { pid : string; func : Pom.Dsl.Func.t; device : Pom.Hls.Device.t }

let serve_kernels =
  [
    "gemm"; "bicg"; "gesummv"; "2mm"; "3mm"; "atax";
    "mvt"; "syrk"; "trmm"; "jacobi-1d"; "jacobi-2d"; "blur";
  ]

(* Popularity order is fixed, so a seed changes which requests are drawn
   but never which design is hot: the full-budget 512 designs first, then
   4096, then the half-budget variants. *)
let serve_shapes = [ (512, 1.0); (4096, 1.0); (512, 0.5); (4096, 0.5) ]

let point_id kernel size frac = Printf.sprintf "%s-%d-f%.1f" kernel size frac

let serve_points () =
  let by_name = P.by_name @ I.by_name in
  List.concat_map
    (fun (size, frac) ->
      List.map
        (fun k ->
          {
            pid = point_id k size frac;
            func = (List.assoc k by_name) size;
            device = Pom.Hls.Device.scale frac Pom.Hls.Device.xc7z020;
          })
        serve_kernels)
    serve_shapes
