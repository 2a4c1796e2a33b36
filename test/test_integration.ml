(* End-to-end tests through the public Pom facade: every framework on every
   workload family, with the paper's qualitative orderings checked and
   schedules validated on the functional simulator. *)

open Pom_workloads

let compile fw func = Pom.compile ~framework:fw func

let test_all_frameworks_run () =
  let func () = Polybench.gemm 256 in
  List.iter
    (fun fw ->
      let c = compile fw (func ()) in
      Alcotest.(check bool) "latency positive" true
        (c.Pom.report.Pom_hls.Report.latency > 0);
      Alcotest.(check bool) "hls c generated" true
        (String.length c.Pom.hls_c > 100))
    [ `Baseline; `Pluto; `Polsca; `Scalehls; `Pom_manual; `Pom_auto ]

let test_paper_ordering_gemm () =
  (* baseline <= pluto ~ polsca << scalehls ~ pom *)
  let s fw = Pom.speedup (compile fw (Polybench.gemm 1024)) in
  let polsca = s `Polsca and scalehls = s `Scalehls and pom = s `Pom_auto in
  Alcotest.(check bool) "polsca modest" true (polsca < 10.0);
  Alcotest.(check bool) "pom >> polsca" true (pom > 10.0 *. polsca);
  Alcotest.(check bool) "pom >= scalehls" true (pom >= scalehls)

let test_paper_ordering_bicg () =
  (* the motivating example: POM clearly ahead of everyone *)
  let s fw = Pom.speedup (compile fw (Polybench.bicg 1024)) in
  let pom = s `Pom_auto in
  Alcotest.(check bool) "pom > scalehls" true (pom > s `Scalehls);
  Alcotest.(check bool) "pom > polsca" true (pom > s `Polsca);
  Alcotest.(check bool) "pom > 50x" true (pom > 50.0)

let test_stencil_only_pom_improves () =
  let seidel () = Polybench.seidel ~tsteps:8 512 in
  let pom = Pom.speedup (compile `Pom_auto (seidel ())) in
  let scalehls = Pom.speedup (compile `Scalehls (seidel ())) in
  Alcotest.(check bool) "pom improves seidel" true (pom > 20.0);
  Alcotest.(check bool) "scalehls trails pom" true (scalehls < pom)

let test_all_schedules_validate () =
  (* every framework's output is functionally equivalent to the
     specification (small sizes, simulator) *)
  let cases =
    [
      ("gemm", Polybench.gemm 8);
      ("bicg", Polybench.bicg 8);
      ("gesummv", Polybench.gesummv 8);
      ("2mm", Polybench.mm2 6);
      ("jacobi-1d", Polybench.jacobi1d ~tsteps:3 12);
      ("seidel", Polybench.seidel ~tsteps:2 10);
      ("blur", Image.blur 10);
      ("gaussian", Image.gaussian 10);
      ("edge-detect", Image.edge_detect 10);
      ("atax", Polybench.atax 8);
      ("mvt", Polybench.mvt 8);
      ("syrk", Polybench.syrk 8);
      ("trmm", Polybench.trmm 8);
      ("doitgen", Polybench.doitgen ~np:4 6);
    ]
  in
  List.iter
    (fun (name, func) ->
      List.iter
        (fun (fwname, fw) ->
          let c = Pom.compile ~framework:fw func in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s via %s" name fwname)
            0.0 (Pom.validate func c))
        [
          ("baseline", `Baseline);
          ("pluto", `Pluto);
          ("polsca", `Polsca);
          ("scalehls", `Scalehls);
          ("pom", `Pom_auto);
        ])
    cases

let test_resource_constraint_sweep () =
  (* Fig. 11: smaller budgets give designs that still fit and never get
     faster *)
  let prev_latency = ref 0 in
  List.iter
    (fun frac ->
      let device = Pom.Hls.Device.scale frac Pom.Hls.Device.xc7z020 in
      let c =
        Pom.compile ~device ~framework:`Pom_auto (Polybench.mm2 1024)
      in
      Alcotest.(check bool)
        (Printf.sprintf "fits at %.0f%%" (100.0 *. frac))
        true
        (Pom.Hls.Resource.fits device c.Pom.report.Pom_hls.Report.usage);
      Alcotest.(check bool) "monotone latency" true
        (!prev_latency = 0 || c.Pom.report.Pom_hls.Report.latency <= !prev_latency);
      prev_latency := c.Pom.report.Pom_hls.Report.latency)
    [ 0.25; 0.5; 0.75; 1.0 ]

(* The reproduction pinned exactly, one row per design in the format of
   perfbench/golden/designs.txt: speedup, achieved IIs, tile vectors,
   parallelism, DSP, LUT, reversed dependences and a digest of the
   generated HLS C, which also pins the loop bounds the polyhedral layer
   computes. *)
let design (c : Pom.compiled) =
  let r = c.Pom.report in
  let ints xs = String.concat "," (List.map string_of_int xs) in
  Printf.sprintf
    "speedup=%.4f ii=%s tiles=%s par=%.2f dsp=%d lut=%d viol=%d c=%s"
    (Pom.speedup c)
    (String.concat ";"
       (List.map (fun (_, ii) -> string_of_int ii) r.Pom_hls.Report.iis))
    (String.concat ";"
       (List.map (fun (s, v) -> s ^ ":" ^ ints v) c.Pom.tile_vectors))
    r.Pom_hls.Report.parallelism r.Pom_hls.Report.usage.Pom_hls.Resource.dsp
    r.Pom_hls.Report.usage.Pom_hls.Resource.lut c.Pom.legality_violations
    (Digest.to_hex (Digest.string c.Pom.hls_c))

(* Table V's networks under POM and under ScaleHLS's dataflow
   composition *)
let test_dnn_reuse_vs_dataflow () =
  List.iter
    (fun (name, build, pom_design, shls_design) ->
      let pom = Pom.compile ~framework:`Pom_auto ~dnn:true (build ()) in
      let shls = Pom.compile ~framework:`Scalehls ~dnn:true (build ()) in
      Alcotest.(check string) (name ^ " pom design") pom_design (design pom);
      Alcotest.(check string)
        (name ^ " scalehls design")
        shls_design (design shls);
      Alcotest.(check bool) (name ^ " pom feasible") true
        pom.Pom.report.Pom_hls.Report.feasible;
      Alcotest.(check bool) (name ^ " pom faster") true
        (Pom.speedup pom > Pom.speedup shls);
      Alcotest.(check bool) (name ^ " pom uses fewer DSPs") true
        (pom.Pom.report.Pom_hls.Report.usage.Pom_hls.Resource.dsp
        < shls.Pom.report.Pom_hls.Report.usage.Pom_hls.Resource.dsp))
    [
      ( "resnet18",
        Dnn.resnet18,
        "speedup=88.0065 ii=1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;\
        1;1;1 tiles=conv1:1,1,1,1,1,8;conv2:1,1,1,1,1,16;conv3:1,1,1,1,1,16;\
        res1_1:1,1,1;conv4:1,1,1,1,1,8;conv5:1,1,1,1,1,8;res1_2:1,1,1;\
        conv6:1,1,1,1,1,1;conv7:1,1,1,1,1,8;conv8:1,1,1,1,1,8;res2_1:1,1,1;\
        conv9:1,1,1,1,1,8;conv10:1,1,1,1,1,8;res2_2:1,1,1;conv11:1,1,1,1,1,1;\
        conv12:1,1,1,1,1,4;conv13:1,1,1,1,1,4;res3_1:1,1,1;\
        conv14:1,1,1,1,1,4;conv15:1,1,1,1,1,4;res3_2:1,1,1;\
        conv16:1,1,1,1,1,1;conv17:1,1,1,1,1,2;conv18:1,1,1,1,1,2;\
        res4_1:1,1,1;conv19:1,1,1,1,1,2;conv20:1,1,1,1,1,2;res4_2:1,1,1 \
        par=16.00 dsp=80 lut=51600 viol=0 c=17a110eefa1d5e7b25cff420365614a1",
        "speedup=34.8362 ii=1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;\
        1;1;1 tiles=conv1:1,1,1,1,1,2;conv2:1,1,1,1,1,2;conv3:1,1,1,1,1,2;\
        res1_1:1,1,2;conv4:1,1,1,1,1,2;conv5:1,1,1,1,1,2;res1_2:1,1,2;\
        conv6:1,1,1,1,1,1;conv7:1,1,1,1,1,2;conv8:1,1,1,1,1,2;res2_1:1,1,2;\
        conv9:1,1,1,1,1,2;conv10:1,1,1,1,1,2;res2_2:1,1,2;conv11:1,1,1,1,1,1;\
        conv12:1,1,1,1,1,2;conv13:1,1,1,1,1,2;res3_1:1,1,2;\
        conv14:1,1,1,1,1,2;conv15:1,1,1,1,1,2;res3_2:1,1,2;\
        conv16:1,1,1,1,1,1;conv17:1,1,1,1,1,2;conv18:1,1,1,1,1,2;\
        res4_1:1,1,2;conv19:1,1,1,1,1,2;conv20:1,1,1,1,1,2;res4_2:1,1,2 \
        par=2.00 dsp=217 lut=45265 viol=0 c=3abf49208e46edff72188f3595af91e5" );
      ( "vgg16",
        Dnn.vgg16,
        "speedup=63.4245 ii=1;1;2;1;1;2;1;1;1;2;1;1;1;2;1;1;1;2 \
        tiles=conv1:1,1,1,1,1,16;conv2:1,1,1,1,1,16;pool1:1,2,16;\
        conv3:1,1,1,1,1,8;conv4:1,1,1,1,1,8;pool2:1,2,8;conv5:1,1,1,1,1,4;\
        conv6:1,1,1,1,1,4;conv7:1,1,1,1,1,4;pool3:1,2,4;conv8:1,1,1,1,1,2;\
        conv9:1,1,1,1,1,2;conv10:1,1,1,1,1,2;pool4:1,2,2;conv11:1,1,1,1,1,1;\
        conv12:1,1,1,1,1,1;conv13:1,1,1,1,1,1;pool5:1,1,1 par=16.00 dsp=80 \
        lut=52380 viol=0 c=f994bbdff6e678645f6e8c357f4b336a",
        "speedup=32.2776 ii=1;1;2;1;1;2;1;1;1;2;1;1;1;2;1;1;1;2 \
        tiles=conv1:1,1,1,1,1,2;conv2:1,1,1,1,1,2;pool1:1,1,2;\
        conv3:1,1,1,1,1,2;conv4:1,1,1,1,1,2;pool2:1,1,2;conv5:1,1,1,1,1,2;\
        conv6:1,1,1,1,1,2;conv7:1,1,1,1,1,2;pool3:1,1,2;conv8:1,1,1,1,1,2;\
        conv9:1,1,1,1,1,2;conv10:1,1,1,1,1,2;pool4:1,2,2;conv11:1,1,1,1,1,1;\
        conv12:1,1,1,1,1,1;conv13:1,1,1,1,1,1;pool5:1,1,1 par=2.00 dsp=115 \
        lut=29015 viol=0 c=f72774d61509aeea8b2028eb8f25bb5f" );
    ]

(* The POM rows of Tables III, V and VII, and the ScaleHLS Table III
   speedups of EXPERIMENTS.md. *)
let pinned_pom =
  [
    ( "gemm",
      (fun () -> Polybench.gemm 4096),
      "speedup=512.0000 ii=1 tiles=s:1,2,16 par=32.00 dsp=160 lut=30280 \
      viol=0 c=18563d06c30bd101c981e9e889463f3b" );
    ( "bicg",
      (fun () -> Polybench.bicg 4096),
      "speedup=223.9987 ii=4 tiles=s_s:1,32;s_q:1,32 par=8.00 dsp=80 \
      lut=38840 viol=0 c=13e2c67f7a09f394aa86887cc7eed371" );
    ( "gesummv",
      (fun () -> Polybench.gesummv 4096),
      "speedup=447.9610 ii=1;1 tiles=s_tmp:1,16;s_y:1,16;s_sum:24 par=24.00 \
      dsp=184 lut=37100 viol=0 c=62194c2a83d1583ca133645906f2e823" );
    ( "2mm",
      (fun () -> Polybench.mm2 4096),
      "speedup=512.0000 ii=1;1 tiles=mm_tmp:1,2,16;mm_d:1,2,16 par=32.00 \
      dsp=160 lut=40840 viol=0 c=35f91ac319654e9e378a29dd8c8f0272" );
    ( "3mm",
      (fun () -> Polybench.mm3 4096),
      "speedup=512.0000 ii=1;1;1 tiles=mm_e:1,2,16;mm_f:1,2,16;mm_g:1,2,16 \
      par=32.00 dsp=160 lut=48320 viol=0 c=8363d1d7bc2c7ebf2c8d23a5e2352636" );
    ( "atax",
      (fun () -> Polybench.atax 4096),
      "speedup=223.9970 ii=2;2 tiles=s_tmp:1,32;s_y:1,32 par=16.00 dsp=80 \
      lut=38620 viol=0 c=b05e7eda144bc3dc81c10b48e304c1b0" );
    ( "mvt",
      (fun () -> Polybench.mvt 4096),
      "speedup=223.9987 ii=4 tiles=s_x1:1,32;s_x2:1,32 par=8.00 dsp=80 \
      lut=38840 viol=0 c=bf8d7ce956d768aee647087b00891116" );
    ( "syrk",
      (fun () -> Polybench.syrk 1024),
      "speedup=511.9998 ii=1 tiles=s:1,2,16 par=32.00 dsp=160 lut=29840 \
      viol=0 c=c1956bac5be260ee1724d9f240ca2d0d" );
    ( "trmm",
      (fun () -> Polybench.trmm 1024),
      "speedup=230.9861 ii=2 tiles=s:1,4,16 par=32.00 dsp=80 lut=25200 viol=0 \
      c=6e9c98f872b711cc82084883c889fa6e" );
    ( "jacobi-1d",
      (fun () -> Polybench.jacobi1d 4096),
      "speedup=204.7000 ii=2 tiles=s0:1,24;s1:1,24 par=12.00 dsp=168 \
      lut=30000 viol=0 c=0de791f03399c66f4d6fa7e77ae1459c" );
    ( "jacobi-2d",
      (fun () -> Polybench.jacobi2d 4096),
      "speedup=144.5549 ii=3 tiles=s0:1,1,16;s1:1,1,16 par=5.33 dsp=110 \
      lut=20940 viol=0 c=f282a4e5068fc2bd129337f470801fa6" );
    ( "edge-detect",
      (fun () -> Image.edge_detect 4096),
      "speedup=332.5612 ii=1;1;1 tiles=s_gx:1,3,16;s_gy:1,2,16;s_mag:1,1,16 \
      par=48.00 dsp=94 lut=50505 viol=0 c=207202689364a4e4265c2310d41546c7" );
    ( "gaussian",
      (fun () -> Image.gaussian 4096),
      "speedup=136.5701 ii=5 tiles=s_gauss:1,1,16 par=3.20 dsp=129 lut=18230 \
      viol=0 c=2ec032e5340c842e9ff6104c32efe659" );
    ( "blur",
      (fun () -> Image.blur 4096),
      "speedup=521.0930 ii=2;1 tiles=s_bx:1,3,16;s_by:1,2,16 par=32.00 \
      dsp=217 lut=52920 viol=0 c=ea15e412932794a7b614986517d7be29" );
    ( "seidel",
      (fun () -> Polybench.seidel ~tsteps:8 256),
      "speedup=29.2602 ii=115 tiles=s:1,8,8 par=0.56 dsp=16 lut=18240 viol=0 \
      c=d0e352ed5699a30905c166f50c0fd6f1" );
  ]

let pinned_scalehls =
  [
    ("gemm", (fun () -> Polybench.gemm 4096), "512.0");
    ("bicg", (fun () -> Polybench.bicg 4096), "13.7");
    ("gesummv", (fun () -> Polybench.gesummv 4096), "447.7");
    ("2mm", (fun () -> Polybench.mm2 4096), "270.3");
    ("3mm", (fun () -> Polybench.mm3 4096), "42.9");
  ]

let test_pinned_designs () =
  List.iter
    (fun (name, build, expected) ->
      Alcotest.(check string) name expected
        (design (Pom.compile ~framework:`Pom_auto (build ()))))
    pinned_pom;
  List.iter
    (fun (name, build, expected) ->
      Alcotest.(check string) ("scalehls " ^ name) expected
        (Printf.sprintf "%.1f"
           (Pom.speedup (Pom.compile ~framework:`Scalehls (build ())))))
    pinned_scalehls

let test_dse_faster_than_scalehls_search () =
  (* Table III: POM's bottleneck-oriented DSE needs fewer QoR evaluations
     than ScaleHLS's dense-ladder greedy search (the deterministic
     counterpart of the DSE-time column) *)
  let pom = Pom.compile ~framework:`Pom_auto (Polybench.mm3 2048) in
  let shls = Pom.compile ~framework:`Scalehls (Polybench.mm3 2048) in
  Alcotest.(check bool) "pom needs fewer evaluations" true
    (pom.Pom.evaluations <= shls.Pom.evaluations)

let test_legality_of_compiled_schedules () =
  List.iter
    (fun (name, func) ->
      let c = Pom.compile ~framework:`Pom_auto func in
      Alcotest.(check (list pass))
        (name ^ " legality")
        []
        (Pom.check_legality func c))
    [
      ("gemm", Polybench.gemm 64);
      ("bicg", Polybench.bicg 64);
      ("trmm", Polybench.trmm 16);
      ("seidel", Polybench.seidel ~tsteps:4 16);
    ]

let test_dtype_customization () =
  (* narrower types buy strictly more parallelism on the same device *)
  let par dt =
    let c = Pom.compile ~framework:`Pom_auto (Polybench.gemm_typed dt 1024) in
    c.Pom.report.Pom_hls.Report.parallelism
  in
  Alcotest.(check bool) "int16 >= float" true
    (par Pom.Dsl.Dtype.p_int16 >= par Pom.Dsl.Dtype.p_float32);
  Alcotest.(check bool) "float >= double" true
    (par Pom.Dsl.Dtype.p_float32 >= par Pom.Dsl.Dtype.p_float64)

let test_timeline_renders () =
  let c = Pom.compile ~framework:`Pom_auto (Polybench.bicg 8) in
  let s = Pom.Hls.Timeline.render ~max_instances:6 c.Pom.prog in
  Alcotest.(check bool) "non-empty" true (String.length s > 40);
  Alcotest.(check bool) "has bars" true (String.contains s '#')

let test_loc_comparison () =
  (* Fig. 15: DSL is several times shorter than the generated HLS C *)
  List.iter
    (fun func ->
      let c = Pom.compile ~framework:`Pom_auto func in
      let hls_loc = Pom.Emit.Emit.loc c.Pom.hls_c in
      let dsl_loc = Pom.Dsl.Func.loc_auto func in
      Alcotest.(check bool)
        (Pom.Dsl.Func.name func ^ " DSL much shorter")
        true
        (hls_loc > 2 * dsl_loc))
    [ Polybench.mm3 64; Polybench.gemm 64 ]

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "all frameworks run" `Quick test_all_frameworks_run;
          Alcotest.test_case "pinned Table III/V/VII designs" `Slow
            test_pinned_designs;
          Alcotest.test_case "gemm ordering" `Quick test_paper_ordering_gemm;
          Alcotest.test_case "bicg ordering" `Quick test_paper_ordering_bicg;
          Alcotest.test_case "stencil: only POM improves" `Quick
            test_stencil_only_pom_improves;
          Alcotest.test_case "all schedules validate" `Slow
            test_all_schedules_validate;
          Alcotest.test_case "resource sweep (Fig. 11)" `Quick
            test_resource_constraint_sweep;
          Alcotest.test_case "DNN reuse vs dataflow" `Slow
            test_dnn_reuse_vs_dataflow;
          Alcotest.test_case "DSE time vs ScaleHLS" `Quick
            test_dse_faster_than_scalehls_search;
          Alcotest.test_case "LoC comparison (Fig. 15)" `Quick test_loc_comparison;
          Alcotest.test_case "compiled schedules are legal" `Slow
            test_legality_of_compiled_schedules;
          Alcotest.test_case "data-type customization" `Quick
            test_dtype_customization;
          Alcotest.test_case "timeline renders" `Quick test_timeline_renders;
        ] );
    ]
