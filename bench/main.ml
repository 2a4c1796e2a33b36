(* The full experiment harness: regenerate every table and figure of the
   paper's evaluation (Section VII), then run one bechamel micro-benchmark
   per experiment measuring its core toolchain path.

   Usage:
     dune exec bench/main.exe            -- all experiments + bechamel
     dune exec bench/main.exe <id>       -- one experiment
     dune exec bench/main.exe bechamel   -- only the timing section *)

let experiments =
  [
    ("fig2", Bench_fig2.run);
    ("table3", Bench_table3.run);
    ("fig11", Bench_fig11.run);
    ("table4", Bench_table4.run);
    ("fig12", Bench_fig12.run);
    ("table5", Bench_table5.run);
    ("table6", Bench_table6.run);
    ("fig13", Bench_fig13.run);
    ("table7", Bench_table7.run);
    ("fig14", Bench_fig14.run);
    ("fig15", Bench_fig15.run);
    ("fig16", Bench_fig16.run);
    ("ablation", Bench_ablation.run);
    ("generality", Bench_generality.run);
    ("devices", Bench_devices.run);
    ("refute", Bench_refute.run);
    ("serve", Bench_serve.run);
    ("chaos", Bench_chaos.run);
  ]

(* The dependence query the QoR model makes for every candidate of a DNN
   search: on ResNet-18's conv2 after Stage 1, tiled as Stage 2 realizes
   parallelism 16. *)
let carried_distances_conv () =
  let module Prog = Pom.Polyir.Prog in
  let module Stmt_poly = Pom.Polyir.Stmt_poly in
  let func = Pom.Workloads.Dnn.resnet18 () in
  let base =
    Prog.apply_all
      (Prog.of_func_unscheduled func)
      (Pom.Dse.Stage1.run func).Pom.Dse.Stage1.directives
  in
  let conv = Prog.stmt base "conv2" in
  let order = Stmt_poly.loop_order conv in
  let extents =
    List.map
      (fun d ->
        match Pom.Poly.Basic_set.const_range d conv.Stmt_poly.domain with
        | Some lb, Some ub -> ub - lb + 1
        | _ -> invalid_arg "carried_distances_conv: unbounded loop")
      order
  in
  let tiled =
    Prog.stmt
      (Prog.apply_all base
         (Pom.Dse.Stage2.realize "conv2" order extents 16)
           .Pom.Dse.Stage2.hw_directives)
      "conv2"
  in
  let domain = Pom.Hls.Summary.ordered_domain tiled in
  let write, reads = Pom.Hls.Summary.transformed_accesses tiled in
  Bechamel.Staged.stage (fun () ->
      List.iter
        (fun read ->
          ignore
            (Pom.Poly.Dep.carried_distances ~domain ~source:write ~sink:read
               ()))
        reads)

(* one bechamel Test per table/figure, timing the dominant toolchain path
   of that experiment at a reduced problem size, plus the cold dependence
   query under the DSE *)
let bechamel_tests =
  let open Bechamel in
  let dse build = Staged.stage (fun () -> ignore (Pom.Dse.Engine.run (build ()))) in
  let compile fw build =
    Staged.stage (fun () -> ignore (Util.compile fw (build ())))
  in
  [
    Test.make ~name:"fig2:bicg-pom-dse" (dse (fun () -> Pom.Workloads.Polybench.bicg 512));
    Test.make ~name:"table3:gemm-pom-dse" (dse (fun () -> Pom.Workloads.Polybench.gemm 512));
    Test.make ~name:"fig11:2mm-constrained"
      (Staged.stage (fun () ->
           let device = Pom.Hls.Device.scale 0.5 Util.device in
           ignore (Util.compile ~device `Pom_auto (Pom.Workloads.Polybench.mm2 512))));
    Test.make ~name:"table4:bicg-manual"
      (Staged.stage (fun () -> ignore (Pom.Baselines.Manual.bicg 512)));
    Test.make ~name:"fig12:gemm-scalehls"
      (compile `Scalehls (fun () -> Pom.Workloads.Polybench.gemm 512));
    Test.make ~name:"table5:blur-pom-dse" (dse (fun () -> Pom.Workloads.Image.blur 512));
    Test.make ~name:"table6:gaussian-pom-dse"
      (dse (fun () -> Pom.Workloads.Image.gaussian 512));
    Test.make ~name:"fig13:resnet-synthesis"
      (Staged.stage (fun () ->
           let prog =
             Pom.Polyir.Prog.of_func_unscheduled (Pom.Workloads.Dnn.resnet18 ())
           in
           ignore (Pom.Hls.Report.synthesize ~device:Util.device prog)));
    Test.make ~name:"table7:seidel-pom-dse"
      (dse (fun () -> Pom.Workloads.Polybench.seidel ~tsteps:8 256));
    Test.make ~name:"fig14:2mm-manual-schedule"
      (compile `Pom_manual (fun () -> Pom.Workloads.Polybench.mm2 256));
    Test.make ~name:"fig15:gemm-emit"
      (Staged.stage (fun () ->
           let prog = Pom.Polyir.Prog.of_func (Pom.Workloads.Polybench.gemm 256) in
           ignore (Pom.Emit.Emit.hls_c (Pom.Affine.Lower.lower prog))));
    Test.make ~name:"fig16:jacobi-pom-dse"
      (dse (fun () -> Pom.Workloads.Polybench.jacobi1d ~tsteps:16 512));
    Test.make ~name:"dse:carried-distances-conv" (carried_distances_conv ());
  ]

let run_bechamel () =
  let open Bechamel in
  Util.section "Bechamel | toolchain-path timings (one per experiment)";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"pom" ~fmt:"%s %s" bechamel_tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "  %-32s %12.0f ns/run\n" name est
      | Some [] | None -> Printf.printf "  %-32s (no estimate)\n" name)
    results

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [] ->
      List.iter (fun (_, run) -> run ()) experiments;
      run_bechamel ()
  | [ "bechamel" ] -> run_bechamel ()
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt id experiments with
          | Some run -> run ()
          | None ->
              Printf.eprintf "unknown experiment %s (known: %s, bechamel)\n" id
                (String.concat ", " (List.map fst experiments));
              exit 1)
        ids
