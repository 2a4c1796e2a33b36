open Pom_dsl
open Pom_polyir
open Pom_hls
open Expr

let f32 = Dtype.p_float32

let gemm_func n =
  let f = Func.create "gemm" in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n and k = Var.make "k" 0 n in
  let d = Placeholder.make "D" [ n; n ] f32 in
  let a = Placeholder.make "A" [ n; n ] f32 in
  let b = Placeholder.make "B" [ n; n ] f32 in
  ignore
    (Func.compute f "s" ~iters:[ k; i; j ]
       ~body:
         (access d [ ix i; ix j ]
         +: (access a [ ix i; ix k ] *: access b [ ix k; ix j ]))
       ~dest:(d, [ ix i; ix j ]) ());
  f

let synth ?composition func =
  Report.synthesize ?composition ~device:Device.xc7z020 (Prog.of_func func)

let test_device () =
  let d = Device.xc7z020 in
  Alcotest.(check int) "dsp" 220 d.Device.dsp;
  Alcotest.(check int) "lut" 53_200 d.Device.lut;
  let half = Device.scale 0.5 d in
  Alcotest.(check int) "scaled dsp" 110 half.Device.dsp;
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Device.scale: bad fraction") (fun () ->
      ignore (Device.scale 0.0 d))

let test_bigger_device_scales_parallelism () =
  let par device =
    let o = Pom_dse.Engine.run ~device (Pom_workloads.Polybench.bicg 1024) in
    o.Pom_dse.Engine.result.Pom_dse.Stage2.report.Report.parallelism
  in
  Alcotest.(check bool) "zu9eg buys more parallelism" true
    (par Device.xczu9eg > par Device.xc7z020)

let test_opchar_body () =
  let f = gemm_func 4 in
  let c = Func.find_compute f "s" in
  let body = Opchar.analyze_body c in
  Alcotest.(check int) "one add" 1 body.Opchar.n_fadd;
  Alcotest.(check int) "one mul" 1 body.Opchar.n_fmul;
  (* path: load(2) -> mul(3) -> add(4) -> store(1) = 10 *)
  Alcotest.(check int) "critical path" 10 body.Opchar.crit_path;
  Alcotest.(check (list (pair string int))) "accesses"
    [ ("A", 1); ("B", 1); ("D", 2) ]
    body.Opchar.accesses

let test_body_resources () =
  let f = gemm_func 4 in
  let body = Opchar.analyze_body (Func.find_compute f "s") in
  let r1 = Opchar.body_resources body ~copies:1 in
  let r4 = Opchar.body_resources body ~copies:4 in
  Alcotest.(check int) "mac = 5 dsp" 5 r1.Opchar.dsp;
  Alcotest.(check int) "copies scale" 20 r4.Opchar.dsp

let test_summary () =
  let f = gemm_func 8 in
  Func.schedule f (Schedule.pipeline "s" "i" 1);
  Func.schedule f (Schedule.unroll "s" "j" 4);
  let prog = Prog.of_func f in
  match Summary.profile_all prog with
  | [ p ] ->
      Alcotest.(check int) "total points" 512 p.Summary.total_points;
      Alcotest.(check bool) "rectangular" true p.Summary.rectangular;
      Alcotest.(check (option int)) "pipeline level" (Some 2)
        (Summary.pipeline_level p);
      let j_loop = List.nth p.Summary.loops 2 in
      Alcotest.(check int) "unroll" 4 j_loop.Summary.unroll;
      (* the (k,i,j) order carries the D dependence at level 1 only *)
      Alcotest.(check bool) "dep carried at level 1" true
        (List.exists (fun dep -> List.mem_assoc 1 dep) p.Summary.deps)
  | _ -> Alcotest.fail "expected one profile"

let test_sequential_baseline () =
  let f = gemm_func 8 in
  let lat = Report.baseline_latency f in
  (* 512 points x (crit 10 + 2*3 levels) = 8192 *)
  Alcotest.(check int) "baseline formula" 8192 lat

(* Every workload pom_compile lists: the baseline skips the dependence
   analysis, and its latency is the one the analyzed profiles give. *)
let test_baseline_reads_no_dependence () =
  let open Pom_workloads in
  List.iter
    (fun (name, func) ->
      let prog = Prog.of_func_unscheduled func in
      Alcotest.(check int) name
        (Latency.sequential_latency ~partitions:(Prog.partition_of prog)
           (Summary.profile_all prog))
        (Report.baseline_latency func))
    (List.map (fun (n, f) -> (n, f 32)) Polybench.by_name
    @ List.map (fun (n, f) -> (n, f 32)) Image.by_name
    @ List.map (fun (n, f) -> (n, f ())) Dnn.by_name)

(* [written[i] = read[i - 1] + 1]: a recurrence when it reads the array it
   writes, nothing otherwise.  The two statements differ only in array
   names, which the dependence memo's key leaves out, so the key has to
   say whether the read is of the written array. *)
let chain ~written ~read n =
  let f = Func.create "chain" in
  let i = Var.make "i" 1 n in
  let w = Placeholder.make written [ n ] f32 in
  let r = if read = written then w else Placeholder.make read [ n ] f32 in
  ignore
    (Func.compute f "s" ~iters:[ i ]
       ~body:(access r [ ix i -! ixc 1 ] +: fconst 1.0)
       ~dest:(w, [ ix i ]) ());
  f

let test_memo_key_reads_the_written_array () =
  let deps = function
    | `Recurrence -> [ [ (1, 1) ] ]
    | `Copy -> []
  in
  let profile n = function
    | `Recurrence -> chain ~written:"A" ~read:"A" n
    | `Copy -> chain ~written:"B" ~read:"C" n
  in
  (* a fresh size per order, so the second order misses the memo too *)
  List.iter
    (fun (n, order) ->
      List.iter
        (fun kind ->
          match Summary.profile_all (Prog.of_func (profile n kind)) with
          | [ p ] ->
              Alcotest.(check (list (list (pair int int))))
                (Printf.sprintf "size %d, %s" n
                   (match kind with
                   | `Recurrence -> "A[i] = A[i-1] + 1"
                   | `Copy -> "B[i] = C[i-1] + 1"))
                (deps kind) p.Summary.deps
          | _ -> Alcotest.fail "expected one profile")
        order)
    [ (16, [ `Recurrence; `Copy ]); (17, [ `Copy; `Recurrence ]) ]

let test_pipelined_ii_one () =
  let f = gemm_func 8 in
  (* innermost-free order (k outermost carries the dep): pipeline j *)
  Func.schedule f (Schedule.pipeline "s" "j" 1);
  let r = synth f in
  Alcotest.(check (list (pair int int))) "II = 1" [ (0, 1) ] r.Report.iis;
  Alcotest.(check bool) "latency near trip count" true
    (r.Report.latency < 600 && r.Report.latency >= 512)

let test_recmii_on_tight_loop () =
  let f = gemm_func 8 in
  (* reorder (k,i,j) to (i,j,k): dependence carried at innermost k *)
  Func.schedule f (Schedule.interchange "s" "k" "j");
  Func.schedule f (Schedule.interchange "s" "j" "i");
  Func.schedule f (Schedule.pipeline "s" "k" 1);
  let r = synth f in
  (* II = load + fadd + store = 7, despite the II=1 target *)
  Alcotest.(check (list (pair int int))) "RecMII" [ (0, 7) ] r.Report.iis

let test_resmii_ports () =
  let f = gemm_func 8 in
  Func.schedule f (Schedule.pipeline "s" "i" 1);
  Func.schedule f (Schedule.unroll "s" "j" 8);
  (* 8 unrolled copies: D and B touched at 8 addresses each, 2 ports,
     no partitioning -> II >= ceil(8+8 / 2) = 8 on D *)
  let r = synth f in
  let ii = List.assoc 0 r.Report.iis in
  Alcotest.(check bool) "port-limited" true (ii >= 4);
  (* partitioning the varying dimension restores II 1 *)
  Func.schedule f (Schedule.partition "D" [ 1; 8 ] Schedule.Cyclic);
  Func.schedule f (Schedule.partition "B" [ 1; 8 ] Schedule.Cyclic);
  let r2 = synth f in
  Alcotest.(check int) "partitioned" 1 (List.assoc 0 r2.Report.iis)

let test_partition_wrong_dim_useless () =
  let f = gemm_func 8 in
  Func.schedule f (Schedule.pipeline "s" "i" 1);
  Func.schedule f (Schedule.unroll "s" "j" 8);
  (* partitioning dim 1 of D does not help a j-unrolled access D[i][j] *)
  Func.schedule f (Schedule.partition "D" [ 8; 1 ] Schedule.Cyclic);
  Func.schedule f (Schedule.partition "B" [ 1; 8 ] Schedule.Cyclic);
  let r = synth f in
  Alcotest.(check bool) "still port-limited" true
    (List.assoc 0 r.Report.iis >= 4)

let test_monotonicity () =
  let make unroll =
    let f = gemm_func 8 in
    Func.schedule f (Schedule.split "s" "j" unroll "j0" "j1");
    Func.schedule f (Schedule.pipeline "s" "j0" 1);
    Func.schedule f (Schedule.unroll "s" "j1" unroll);
    Func.schedule f (Schedule.partition "D" [ 1; unroll ] Schedule.Cyclic);
    Func.schedule f (Schedule.partition "B" [ 1; unroll ] Schedule.Cyclic);
    synth f
  in
  let r2 = make 2 and r4 = make 4 in
  Alcotest.(check bool) "more unroll, less latency" true
    (r4.Report.latency < r2.Report.latency);
  Alcotest.(check bool) "more unroll, more dsp" true
    (r4.Report.usage.Resource.dsp > r2.Report.usage.Resource.dsp)

let test_composition_modes () =
  let f = Pom_workloads.Polybench.mm2 64 in
  let prog = Prog.of_func f in
  let reuse = Report.synthesize ~device:Device.xc7z020 prog in
  let dflow =
    Report.synthesize ~composition:Resource.Dataflow ~device:Device.xc7z020 prog
  in
  Alcotest.(check bool) "dataflow uses at least as much" true
    (dflow.Report.usage.Resource.dsp >= reuse.Report.usage.Resource.dsp)

let test_dtype_costs () =
  (* a float MAC takes 5 DSPs, an int8 MAC none, a double MAC many *)
  Alcotest.(check int) "f32 mac dsp" 5
    ((Opchar.add_cost Dtype.p_float32).Opchar.dsp
    + (Opchar.mul_cost Dtype.p_float32).Opchar.dsp);
  Alcotest.(check int) "i8 mac dsp" 0
    ((Opchar.add_cost Dtype.p_int8).Opchar.dsp
    + (Opchar.mul_cost Dtype.p_int8).Opchar.dsp);
  Alcotest.(check bool) "f64 mac heavier" true
    ((Opchar.mul_cost Dtype.p_float64).Opchar.dsp
    > (Opchar.mul_cost Dtype.p_float32).Opchar.dsp);
  (* integer accumulation chains are short: II stays low on a tight loop *)
  let fint = Pom_workloads.Polybench.gemm_typed Dtype.p_int32 8 in
  Func.schedule fint (Schedule.pipeline "s" "k" 1);
  let r = synth fint in
  Alcotest.(check bool) "int RecMII below float's 7" true
    (List.assoc 0 r.Report.iis < 7)

let test_bram_model () =
  (* small arrays are buffered on-chip; the evaluation's 4096^2 matrices
     are external *)
  let small = synth (gemm_func 32) in
  Alcotest.(check bool) "small gemm uses BRAM" true
    (small.Report.usage.Resource.bram > 0);
  let big = synth (gemm_func 2048) in
  Alcotest.(check int) "big arrays external" 0 big.Report.usage.Resource.bram;
  Alcotest.(check int) "xc7z020 blocks" 265
    (Resource.bram18_blocks Device.xc7z020)

let test_power_positive_and_monotone () =
  let u1 = { Resource.dsp = 10; lut = 1000; ff = 1000; bram = 2 } in
  let u2 = { Resource.dsp = 100; lut = 30000; ff = 30000; bram = 40 } in
  Alcotest.(check bool) "positive" true (Resource.power u1 > 0.0);
  Alcotest.(check bool) "monotone" true (Resource.power u2 > Resource.power u1)

let test_feasibility () =
  let d = Device.xc7z020 in
  Alcotest.(check bool) "fits" true
    (Resource.fits d { Resource.dsp = 220; lut = 53_200; ff = 106_400; bram = 0 });
  Alcotest.(check bool) "does not fit" false
    (Resource.fits d { Resource.dsp = 221; lut = 0; ff = 0; bram = 0 })

let prop_unroll_latency_monotone =
  QCheck.Test.make ~name:"doubling unroll never increases latency" ~count:20
    (QCheck.make QCheck.Gen.(int_range 1 3))
    (fun log_u ->
      let u = 1 lsl log_u in
      let make unroll =
        let f = gemm_func 16 in
        Func.schedule f (Schedule.split "s" "j" unroll "j0" "j1");
        Func.schedule f (Schedule.pipeline "s" "j0" 1);
        Func.schedule f (Schedule.unroll "s" "j1" unroll);
        Func.schedule f (Schedule.partition "D" [ 1; unroll ] Schedule.Cyclic);
        Func.schedule f (Schedule.partition "B" [ 1; unroll ] Schedule.Cyclic);
        (synth f).Report.latency
      in
      make (2 * u) <= make u)

let () =
  Alcotest.run "hls"
    [
      ( "unit",
        [
          Alcotest.test_case "device" `Quick test_device;
          Alcotest.test_case "device scaling" `Quick
            test_bigger_device_scales_parallelism;
          Alcotest.test_case "operator characterization" `Quick test_opchar_body;
          Alcotest.test_case "body resources" `Quick test_body_resources;
          Alcotest.test_case "summary extraction" `Quick test_summary;
          Alcotest.test_case "sequential baseline" `Quick test_sequential_baseline;
          Alcotest.test_case "baseline reads no dependence" `Quick
            test_baseline_reads_no_dependence;
          Alcotest.test_case "memo key reads the written array" `Quick
            test_memo_key_reads_the_written_array;
          Alcotest.test_case "pipelined II=1" `Quick test_pipelined_ii_one;
          Alcotest.test_case "RecMII on tight loop" `Quick test_recmii_on_tight_loop;
          Alcotest.test_case "ResMII port pressure" `Quick test_resmii_ports;
          Alcotest.test_case "partitioning the wrong dim" `Quick
            test_partition_wrong_dim_useless;
          Alcotest.test_case "monotonicity" `Quick test_monotonicity;
          Alcotest.test_case "composition modes" `Quick test_composition_modes;
          Alcotest.test_case "data-type costs" `Quick test_dtype_costs;
          Alcotest.test_case "BRAM model" `Quick test_bram_model;
          Alcotest.test_case "power model" `Quick test_power_positive_and_monotone;
          Alcotest.test_case "feasibility" `Quick test_feasibility;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_unroll_latency_monotone ]);
    ]
