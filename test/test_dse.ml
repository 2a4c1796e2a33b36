open Pom_dsl
open Pom_dse
open Pom_workloads

let find_plan (s : Stage1.t) name =
  List.find (fun (p : Stage1.node_plan) -> p.Stage1.compute = name) s.Stage1.nodes

let test_stage1_gemm_reorders () =
  let s = Stage1.run (Polybench.gemm 64) in
  let p = find_plan s "s" in
  Alcotest.(check bool) "not tight" false p.Stage1.tight;
  Alcotest.(check bool) "k moved off innermost" true
    (List.nth p.Stage1.final_order 2 <> "k")

let test_stage1_bicg_split_interchange_merge () =
  (* the Fig. 10 sequence: distribute, interchange s_q, re-fuse *)
  let s = Stage1.run (Polybench.bicg 64) in
  let pq = find_plan s "s_q" and ps = find_plan s "s_s" in
  Alcotest.(check (list string)) "s_q interchanged" [ "j"; "i" ]
    pq.Stage1.final_order;
  Alcotest.(check (list string)) "s_s kept" [ "i"; "j" ] ps.Stage1.final_order;
  let fused =
    List.exists
      (fun d -> match d with Schedule.Fuse _ -> true | _ -> false)
      s.Stage1.directives
  in
  Alcotest.(check bool) "re-fused" true fused;
  Alcotest.(check bool) "several analysis rounds" true (s.Stage1.iterations >= 2)

let test_stage1_jacobi_keeps_user_fusion () =
  (* ping-pong computes have cross dependences: the time-loop fusion must
     be preserved, not distributed *)
  let s = Stage1.run (Polybench.jacobi1d ~tsteps:8 64) in
  let fused =
    List.exists
      (fun d ->
        match d with Schedule.After _ | Schedule.Fuse _ -> true | _ -> false)
      s.Stage1.directives
  in
  Alcotest.(check bool) "fusion preserved" true fused

let test_stage1_seidel_skews () =
  let s = Stage1.run (Polybench.seidel ~tsteps:4 64) in
  let p = find_plan s "s" in
  Alcotest.(check bool) "skewed" true p.Stage1.skewed;
  let has_skew =
    List.exists
      (fun d -> match d with Schedule.Skew _ -> true | _ -> false)
      s.Stage1.directives
  in
  Alcotest.(check bool) "skew directive emitted" true has_skew

let test_stage1_transformed_programs_are_correct () =
  List.iter
    (fun func ->
      let s = Stage1.run func in
      let prog =
        List.fold_left Pom_polyir.Prog.apply
          (Pom_polyir.Prog.of_func_unscheduled func)
          s.Stage1.directives
      in
      Alcotest.(check (float 0.0))
        (Func.name func ^ " stage1 preserves semantics")
        0.0
        (Pom_sim.Interp.divergence func prog))
    [
      Polybench.gemm 8;
      Polybench.bicg 8;
      Polybench.gesummv 8;
      Polybench.seidel ~tsteps:3 10;
      Polybench.jacobi1d ~tsteps:3 10;
    ]

let test_stage2_improves_and_fits () =
  let func = Polybench.gemm 256 in
  let stage1 = Stage1.run func in
  let r = Stage2.run func stage1 in
  let baseline = Pom_hls.Report.baseline_latency func in
  Alcotest.(check bool) "feasible" true r.Stage2.report.Pom_hls.Report.feasible;
  Alcotest.(check bool) "speedup > 50x" true
    (Pom_hls.Report.speedup ~baseline r.Stage2.report > 50.0);
  Alcotest.(check bool) "terminates" true (r.Stage2.iterations < 60)

let test_stage2_respects_scaled_device () =
  let func = Polybench.mm2 512 in
  let full = Stage2.run func (Stage1.run func) in
  let quarter_device = Pom_hls.Device.scale 0.25 Pom_hls.Device.xc7z020 in
  let quarter = Stage2.run ~device:quarter_device func (Stage1.run func) in
  Alcotest.(check bool) "quarter fits quarter" true
    (Pom_hls.Resource.fits quarter_device
       quarter.Stage2.report.Pom_hls.Report.usage);
  Alcotest.(check bool) "full uses more than quarter" true
    (full.Stage2.report.Pom_hls.Report.usage.Pom_hls.Resource.dsp
    >= quarter.Stage2.report.Pom_hls.Report.usage.Pom_hls.Resource.dsp);
  Alcotest.(check bool) "full is at least as fast" true
    (full.Stage2.report.Pom_hls.Report.latency
    <= quarter.Stage2.report.Pom_hls.Report.latency)

let test_stage2_tile_vectors () =
  let func = Polybench.gemm 256 in
  let r = Stage2.run func (Stage1.run func) in
  match List.assoc_opt "s" r.Stage2.tile_vectors with
  | Some v ->
      Alcotest.(check int) "vector per level" 3 (List.length v);
      Alcotest.(check bool) "some parallelism" true
        (List.fold_left ( * ) 1 v > 1)
  | None -> Alcotest.fail "missing tile vector"

let test_engine_end_to_end_correct () =
  List.iter
    (fun func ->
      let o = Engine.run func in
      Alcotest.(check (float 0.0))
        (Func.name func ^ " DSE output preserves semantics")
        0.0
        (Pom_sim.Interp.divergence func o.Engine.result.Stage2.prog))
    [
      Polybench.gemm 8;
      Polybench.bicg 8;
      Polybench.mm2 8;
      Polybench.seidel ~tsteps:3 10;
      Polybench.jacobi2d ~tsteps:2 8;
      Image.blur 12;
    ]

let test_engine_bottleneck_balance () =
  (* 3MM: the bottleneck-oriented search must optimize all three products,
     unlike the greedy baseline *)
  let func = Polybench.mm3 512 in
  let o = Engine.run func in
  let pars =
    List.map
      (fun (_, v) -> List.fold_left ( * ) 1 v)
      o.Engine.result.Stage2.tile_vectors
  in
  Alcotest.(check int) "three vectors" 3 (List.length pars);
  List.iter
    (fun p -> Alcotest.(check bool) "every loop optimized" true (p > 1))
    pars

let test_custom_strategy_group () =
  (* a conservative user strategy (only doubling, capped trials) still
     terminates and produces a feasible design *)
  let func = Polybench.gemm 256 in
  let r =
    Stage2.run ~steps:(fun p -> [ p * 2 ]) func (Stage1.run func)
  in
  Alcotest.(check bool) "feasible" true r.Stage2.report.Pom_hls.Report.feasible;
  (* a dense strategy explores at least as well *)
  let dense =
    Stage2.run ~steps:(fun p -> [ p * 2; p * 3 / 2; p + 1 ]) func (Stage1.run func)
  in
  Alcotest.(check bool) "dense at least as fast" true
    (dense.Stage2.report.Pom_hls.Report.latency
    <= r.Stage2.report.Pom_hls.Report.latency)

let contains line sub =
  let n = String.length sub in
  let rec has i =
    i + n <= String.length line && (String.sub line i n = sub || has (i + 1))
  in
  has 0

(* The count the ScaleHLS trace's [analyzer:] line reports; 0 without
   one. *)
let analyzer_pruned trace =
  List.fold_left
    (fun n line ->
      try Scanf.sscanf line "analyzer: %d design points pruned" Fun.id
      with Scanf.Scan_failure _ | End_of_file -> n)
    0 trace

(* The target cycles of the last line reading "... accepted (a -> b
   cycles)". *)
let last_accepted_cycles trace =
  List.fold_left
    (fun last line ->
      match String.index_opt line '(' with
      | Some i when contains line " accepted (" -> (
          let tail = String.sub line i (String.length line - i) in
          try Scanf.sscanf tail "(%d -> %d cycles)" (fun _ b -> Some b)
          with Scanf.Scan_failure _ | End_of_file -> last)
      | _ -> last)
    None trace

let test_trace_records_decisions () =
  let func = Polybench.gemm 256 in
  let r = Stage2.run func (Stage1.run func) in
  Alcotest.(check bool) "trace non-empty" true (r.Stage2.trace <> []);
  Alcotest.(check bool) "records acceptance" true
    (List.exists (fun line -> contains line "accepted") r.Stage2.trace);
  Alcotest.(check (option int))
    "gemm: the last accepted step reaches the design's latency"
    (Some r.Stage2.report.Pom_hls.Report.latency)
    (last_accepted_cycles r.Stage2.trace);
  (* the ScaleHLS ladder traces every rung *)
  List.iter
    (fun (name, func) ->
      let c = Pom.compile ~framework:`Scalehls func in
      let rungs =
        List.filter (fun line -> contains line "rung g") c.Pom.trace
      in
      Alcotest.(check bool)
        (name ^ ": an accepted rung")
        true
        (List.exists (fun line -> contains line " accepted (") rungs);
      Alcotest.(check int)
        (name ^ ": one line per pruned rung")
        (analyzer_pruned c.Pom.trace)
        (List.length
           (List.filter
              (fun line -> contains line "pruned by the analyzer")
              rungs));
      Alcotest.(check (option int))
        (name ^ ": the last accepted rung reaches the design's latency")
        (Some c.Pom.report.Pom_hls.Report.latency)
        (last_accepted_cycles rungs))
    [
      ("2mm", Polybench.mm2 32);
      ("3mm", Polybench.mm3 32);
      (* two rungs pruned *)
      ("edge-detect", Image.edge_detect 32);
    ];
  (* of the bundled workloads only ResNet-18 runs into the iteration cap;
     VGG-16 converges at iteration 55 *)
  let cap_lines (r : Stage2.result) =
    List.filter (fun line -> contains line "iteration cap") r.Stage2.trace
  in
  let search func = Stage2.run func (Stage1.run func) in
  Alcotest.(check (list string)) "gemm: no cap line" [] (cap_lines r);
  Alcotest.(check (list string))
    "vgg16: no cap line" []
    (cap_lines (search (Dnn.vgg16 ())));
  Alcotest.(check (list string))
    "resnet18: the cap line"
    [
      "iter 60: iteration cap reached; search stopped with 9 units still on \
       the optimization list";
    ]
    (cap_lines (search (Dnn.resnet18 ())))

let test_realize_cases () =
  (* pipeline only *)
  let r1 = Stage2.realize "s" [ "i"; "j" ] [ 16; 16 ] 1 in
  Alcotest.(check (list int)) "par 1 vector" [ 1; 1 ] r1.Stage2.tile_vector;
  (* split innermost *)
  let r4 = Stage2.realize "s" [ "i"; "j" ] [ 16; 16 ] 4 in
  Alcotest.(check (list int)) "par 4 vector" [ 1; 4 ] r4.Stage2.tile_vector;
  (* spill into the second dim *)
  let r64 = Stage2.realize "s" [ "i"; "j" ] [ 16; 16 ] 64 in
  Alcotest.(check (list int)) "par 64 vector" [ 4; 16 ] r64.Stage2.tile_vector;
  (* three-deep prefers a balanced [., 2, 16] split *)
  let r32 = Stage2.realize "s" [ "i"; "j"; "k" ] [ 64; 64; 64 ] 32 in
  Alcotest.(check (list int)) "deep balanced" [ 1; 2; 16 ] r32.Stage2.tile_vector

(* ---- the per-unit splice against whole-program re-realization ---- *)

(* Every parallelism level either search can move a unit to: Stage 2's
   default steps (double, then 1.5x) closed from 1 up to the default cap —
   a superset of the ScaleHLS ladder. *)
let realizable_levels =
  let rec close seen = function
    | [] -> List.sort compare seen
    | p :: rest ->
        let next =
          List.filter
            (fun q -> q > p && q <= 64 && not (List.mem q seen))
            [ p * 2; p * 3 / 2 ]
        in
        close (next @ seen) (next @ rest)
  in
  close [ 1 ] [ 1 ]

let hw_directives units =
  List.concat_map
    (fun (u : Stage2.unit_state) ->
      List.concat_map (fun r -> r.Stage2.hw_directives) u.Stage2.realization)
    units

(* Printed, never compared with polymorphic equality: statements carry
   [Linexpr] values. *)
let render (prog, profiles) hw =
  String.concat "\n"
    (Format.asprintf "%a" Pom_polyir.Prog.pp prog
    :: List.map (Format.asprintf "%a" Pom_hls.Summary.pp) profiles
    @ List.map (Format.asprintf "%a" Schedule.pp) hw)

(* The signature as the search used to compute it: the loops of every
   statement's full (dependence-including) profile. *)
let whole_program_signature profiles =
  List.sort compare
    (List.map
       (fun (p : Pom_hls.Summary.t) ->
         ( Pom_polyir.Stmt_poly.name p.Pom_hls.Summary.stmt,
           List.map
             (fun (l : Pom_hls.Summary.loop) ->
               Pom_hls.Summary.(l.dim, l.extent, l.unroll, l.pipelined, l.target_ii))
             p.Pom_hls.Summary.loops ))
       profiles)

let test_splice_matches_whole_program () =
  List.iter
    (fun (name, func) ->
      let base = (Stage1.run func).Stage1.directives in
      let prog_base =
        Pom_polyir.Prog.apply_all (Pom_polyir.Prog.of_func_unscheduled func) base
      in
      let units = Stage2.units_of prog_base in
      let state () =
        render (Stage2.splice prog_base units) (hw_directives units)
      in
      let initial = state () in
      List.iter
        (fun (u : Stage2.unit_state) ->
          (* levels the factor caps clamp onto one realization are moved to
             once *)
          let seen = Hashtbl.create 16 in
          List.iter
            (fun par ->
              let own =
                List.concat_map
                  (fun (c, order, extents) ->
                    (Stage2.realize c order extents par).Stage2.hw_directives)
                  u.Stage2.members
              in
              let key = String.concat ";" (List.map Schedule.to_string own) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                let where =
                  Printf.sprintf "%s g%d par %d" name u.Stage2.id par
                in
                let kept =
                  Stage2.try_move u par (fun () ->
                      let ((_, profiles) as spliced) =
                        Stage2.splice prog_base units
                      in
                      let hw = hw_directives units in
                      let whole =
                        List.fold_left Pom_polyir.Prog.apply prog_base hw
                      in
                      let whole_profiles = Pom_hls.Summary.profile_all whole in
                      Alcotest.(check string)
                        (where ^ ": spliced program and profiles")
                        (render (whole, whole_profiles) hw)
                        (render spliced hw);
                      let expected = whole_program_signature whole_profiles in
                      Alcotest.(check bool)
                        (where ^ ": loops-only signature")
                        true
                        (Pom_analysis.Lint.profiles_signature profiles
                         = expected
                        && Pom_analysis.Lint.hw_signature (fst spliced)
                           = expected);
                      false)
                in
                Alcotest.(check bool) (where ^ ": backed out") false kept
              end)
            realizable_levels;
          Alcotest.(check string)
            (Printf.sprintf "%s g%d: moves backed out" name u.Stage2.id)
            initial (state ()))
        units)
    [
      ("gemm", Polybench.gemm 64);
      ("bicg", Polybench.bicg 64);
      ("3mm", Polybench.mm3 64);
      ("seidel", Polybench.seidel ~tsteps:4 32);
      ("vgg16", Dnn.vgg16 ());
      ("resnet18", Dnn.resnet18 ());
    ]

(* The dependence analysis of a statement over every level, run here
   without the dependence memo: what a realized statement's derived
   dependences must equal. *)
let full_analysis (s : Pom_polyir.Stmt_poly.t) =
  let domain = Pom_hls.Summary.ordered_domain s in
  let write, reads = Pom_hls.Summary.transformed_accesses s in
  List.map
    (fun read ->
      Pom_poly.Dep.carried_distances ~domain ~source:write ~sink:read ())
    reads

let deps_of carried =
  List.filter_map
    (function
      | [] -> None
      | levels ->
          Some
            (List.filter_map
               (fun (level, dmin) -> Option.map (fun d -> (level, d)) dmin)
               levels))
    carried

(* The directives the ScaleHLS ladder searches from: its interchange and
   structural passes. *)
let scalehls_base func =
  let head =
    List.filteri (fun i _ -> i < 2) (Pom_baselines.Scalehls.passes ())
  in
  let st, _ =
    Pom_pipeline.Pass.run head
      (Pom_pipeline.State.init ~device:Pom_hls.Device.xc7z020 func)
  in
  st.Pom_pipeline.State.directives

let test_derived_deps_match_full_analysis () =
  let workloads =
    List.map (fun (name, build) -> (name, build 32)) Polybench.by_name
    @ List.map (fun (name, build) -> (name, build 32)) Image.by_name
    @ [ ("vgg16", Dnn.vgg16 ()); ("resnet18", Dnn.resnet18 ()) ]
  in
  let retiled = ref 0 in
  List.iter
    (fun (name, func) ->
      List.iter
        (fun (search, base) ->
          let prog_base =
            Pom_polyir.Prog.apply_all
              (Pom_polyir.Prog.of_func_unscheduled func)
              base
          in
          List.iter
            (fun (u : Stage2.unit_state) ->
              List.iter
                (fun par ->
                  let check () =
                    List.iter2
                      (fun (stage1 : Pom_hls.Summary.t) (p : Pom_hls.Summary.t) ->
                        let s = p.Pom_hls.Summary.stmt in
                        let where =
                          Printf.sprintf "%s %s g%d par %d %s" name search
                            u.Stage2.id par
                            (Pom_polyir.Stmt_poly.name s)
                        in
                        if
                          List.length p.Pom_hls.Summary.loops
                          > List.length stage1.Pom_hls.Summary.loops
                        then incr retiled;
                        let full = full_analysis s in
                        Alcotest.(check (list (list (pair int (option int)))))
                          (where ^ ": per-read carried distances")
                          full p.Pom_hls.Summary.carried;
                        Alcotest.(check (list (list (pair int int))))
                          (where ^ ": deps") (deps_of full)
                          p.Pom_hls.Summary.deps;
                        let extents loops =
                          List.map
                            (fun (l : Pom_hls.Summary.loop) ->
                              l.Pom_hls.Summary.extent)
                            loops
                        in
                        Alcotest.(check (list int))
                          (where ^ ": loop extents")
                          (extents (Pom_hls.Summary.loops_of s))
                          (extents p.Pom_hls.Summary.loops))
                      u.Stage2.stage1 u.Stage2.realized;
                    false
                  in
                  ignore (Stage2.try_move u par check))
                realizable_levels)
            (Stage2.units_of prog_base))
        [
          ("pom", (Stage1.run func).Stage1.directives);
          ("scalehls", scalehls_base func);
        ])
    workloads;
  Alcotest.(check bool) "some statements were re-tiled" true (!retiled > 0)

(* ---- one search step against the whole-program computations ---- *)

(* The bottleneck pick as a list walk: every path re-summed through
   [List.assoc_opt], sorted stably by weight, and on the first path with
   an active unit the first active unit of maximum latency. *)
let list_bottleneck ~(report : Pom_hls.Report.t) ~active units paths =
  let latency (u : Stage2.unit_state) =
    Option.value ~default:0
      (List.assoc_opt u.Stage2.id report.Pom_hls.Report.group_latencies)
  in
  let unit_of_compute name =
    List.find_opt
      (fun (u : Stage2.unit_state) ->
        List.exists (fun (c, _, _) -> c = name) u.Stage2.members)
      units
  in
  let unit_paths =
    List.map
      (fun path ->
        let seen = Hashtbl.create 4 in
        List.filter
          (fun (u : Stage2.unit_state) ->
            if Hashtbl.mem seen u.Stage2.id then false
            else begin
              Hashtbl.add seen u.Stage2.id ();
              true
            end)
          (List.filter_map unit_of_compute path))
      paths
  in
  let weighted =
    List.map
      (fun us -> (List.fold_left (fun acc u -> acc + latency u) 0 us, us))
      unit_paths
  in
  List.find_map
    (fun (_, us) ->
      match
        List.stable_sort
          (fun a b -> Int.compare (latency b) (latency a))
          (List.filter active us)
      with
      | u :: _ -> Some u
      | [] -> None)
    (List.stable_sort (fun (wa, _) (wb, _) -> Int.compare wb wa) weighted)

let test_bottleneck_matches_list_walk () =
  let rng = Random.State.make [| 20 |] in
  List.iter
    (fun (name, func) ->
      let stage1 = Stage1.run func in
      let prog_base =
        Pom_polyir.Prog.apply_all
          (Pom_polyir.Prog.of_func_unscheduled func)
          stage1.Stage1.directives
      in
      let units = Stage2.units_of prog_base in
      let unit_array = Array.of_list units in
      let paths = Stage2.unit_paths stage1.Stage1.paths unit_array in
      let index = Hashtbl.create 64 in
      Array.iteri (fun i u -> Hashtbl.add index u.Stage2.id i) unit_array;
      for trial = 1 to 400 do
        (* narrow latency ranges force ties between units and between
           paths; a group missing from the report has latency 0 *)
        let range = [| 2; 5; 1_000; 1_000_000_000 |].(trial mod 4) in
        let group_latencies =
          List.filter_map
            (fun (u : Stage2.unit_state) ->
              if Random.State.int rng 10 = 0 then None
              else Some (u.Stage2.id, Random.State.int rng range))
            units
        in
        let share = [| 0; 1; 5; 9; 10 |].(trial mod 5) in
        let flags =
          Array.map (fun _ -> Random.State.int rng 10 < share) unit_array
        in
        let report =
          {
            Pom_hls.Report.latency = 0;
            group_latencies;
            iis = [];
            usage = Pom_hls.Resource.zero;
            power = 0.;
            feasible = true;
            parallelism = 0.;
            unroll_products = [];
          }
        in
        let expected =
          Option.map
            (fun (u : Stage2.unit_state) -> u.Stage2.id)
            (list_bottleneck ~report
               ~active:(fun (u : Stage2.unit_state) ->
                 flags.(Hashtbl.find index u.Stage2.id))
               units stage1.Stage1.paths)
        in
        let picked =
          Option.map
            (fun i -> unit_array.(i).Stage2.id)
            (Stage2.bottleneck ~report ~active:(Array.get flags) unit_array
               paths)
        in
        Alcotest.(check (option int))
          (Printf.sprintf "%s trial %d" name trial)
          expected picked
      done)
    [
      ("resnet18", Dnn.resnet18 ());
      ("vgg16", Dnn.vgg16 ());
      ("3mm", Polybench.mm3 64);
    ]

(* The partition plan as the searches derived it before it read the
   profiles: every unrolled statement's accesses re-derived from its
   index map. *)
let statement_partition_plan ?(bank_cap = 64) (prog : Pom_polyir.Prog.t) =
  let open Pom_polyir in
  let demand : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  let placeholders = Func.placeholders prog.Prog.func in
  List.iter
    (fun (p : Placeholder.t) ->
      Hashtbl.replace demand p.Placeholder.name
        (Array.make (Placeholder.rank p) 1))
    placeholders;
  List.iter
    (fun (s : Stmt_poly.t) ->
      let unrolls = s.Stmt_poly.hw.Stmt_poly.unrolls in
      if unrolls <> [] then begin
        let write, reads = Pom_hls.Summary.transformed_accesses s in
        List.iter
          (fun (a : Pom_poly.Dep.access) ->
            match Hashtbl.find_opt demand a.Pom_poly.Dep.array with
            | None -> ()
            | Some factors ->
                List.iteri
                  (fun k idx ->
                    let dims = Pom_poly.Linexpr.dims idx in
                    List.iter
                      (fun (dim, f) ->
                        if List.mem dim dims && f > factors.(k) then
                          factors.(k) <- f)
                      unrolls)
                  a.Pom_poly.Dep.indices)
          (write :: reads)
      end)
    prog.Prog.stmts;
  let cap_banks factors =
    let fs = Array.of_list factors in
    let product () = Array.fold_left ( * ) 1 fs in
    while product () > bank_cap do
      let widest = ref 0 in
      Array.iteri (fun k f -> if f > fs.(!widest) then widest := k) fs;
      fs.(!widest) <- max 1 (fs.(!widest) / 2)
    done;
    Array.to_list fs
  in
  List.filter_map
    (fun (p : Placeholder.t) ->
      let factors = Array.to_list (Hashtbl.find demand p.Placeholder.name) in
      let factors =
        List.map2
          (fun f extent -> min f (min extent 64))
          factors p.Placeholder.shape
      in
      let factors = cap_banks factors in
      if List.exists (fun f -> f > 1) factors then
        Some (Schedule.partition p.Placeholder.name factors Schedule.Cyclic)
      else None)
    placeholders

(* The design points a search over [base] prices, in order: the initial
   incumbent, then every candidate [accept] is asked about while each unit
   climbs every realizable level, taking a candidate that fits and is
   faster. *)
let priced_points ~composition ~latency_mode func base =
  let s =
    Stage2.start ~device:Pom_hls.Device.xc7z020 ~composition ~latency_mode func
      base
  in
  let prog, _, report = Stage2.incumbent s in
  let points = ref [ (prog, report) ] in
  List.iter
    (fun u ->
      List.iter
        (fun par ->
          let _, _, (incumbent : Pom_hls.Report.t) = Stage2.incumbent s in
          let accept prog (report : Pom_hls.Report.t) =
            points := (prog, report) :: !points;
            report.Pom_hls.Report.feasible
            && report.Pom_hls.Report.latency < incumbent.Pom_hls.Report.latency
          in
          ignore (Stage2.step s u par ~accept))
        realizable_levels)
    (Stage2.units s);
  List.rev !points

(* The base the ScaleHLS greedy pass searches from: its flow's directives
   before that pass. *)
let scalehls_base func =
  let st, _ =
    Pom_pipeline.Pass.run
      (List.filter
         (fun (p : _ Pom_pipeline.Pass.t) ->
           p.Pom_pipeline.Pass.name <> "scalehls-greedy-dse")
         (Pom_baselines.Scalehls.passes ()))
      (Pom_pipeline.State.init ~device:Pom_hls.Device.xc7z020 func)
  in
  st.Pom_pipeline.State.directives

let test_search_reports_and_plans () =
  let device = Pom_hls.Device.xc7z020 in
  let workloads =
    List.map (fun (name, build) -> (name, build 32, false)) Polybench.by_name
    @ List.map (fun (name, build) -> (name, build 32, false)) Image.by_name
    @ [ ("vgg16", Dnn.vgg16 (), true); ("resnet18", Dnn.resnet18 (), true) ]
  in
  let priced = ref 0 in
  List.iter
    (fun (name, func, dnn) ->
      List.iter
        (fun (search, composition, latency_mode, base) ->
          List.iteri
            (fun k ((prog : Pom_polyir.Prog.t), report) ->
              incr priced;
              let where = Printf.sprintf "%s %s point %d" name search k in
              Alcotest.(check bool)
                (where ^ ": report equals a whole-program synthesis")
                true
                (report
                = Pom_hls.Report.synthesize ~composition ~latency_mode ~device
                    prog);
              let plan = statement_partition_plan prog in
              let printed = List.map Schedule.to_string in
              Alcotest.(check (list string))
                (where ^ ": partition plan")
                (printed plan)
                (printed
                   (Stage2.partition_plan prog.Pom_polyir.Prog.func
                      (Pom_hls.Summary.profile_all prog)));
              Alcotest.(check bool)
                (where ^ ": the searched point is partitioned by the plan")
                true
                ((List.fold_left Pom_polyir.Prog.apply
                    { prog with Pom_polyir.Prog.partitions = [] }
                    plan)
                   .Pom_polyir.Prog.partitions
                = prog.Pom_polyir.Prog.partitions))
            (priced_points ~composition ~latency_mode func (base func)))
        [
          ( "pom",
            Pom_hls.Resource.Reuse,
            `Sequential,
            fun func -> (Stage1.run func).Stage1.directives );
          ( "scalehls",
            Pom_hls.Resource.Dataflow,
            (if dnn then `Dataflow else `Sequential),
            scalehls_base );
        ])
    workloads;
  Alcotest.(check bool) "searches priced design points" true (!priced > 100)

let () =
  Alcotest.run "dse"
    [
      ( "stage1",
        [
          Alcotest.test_case "gemm reorders" `Quick test_stage1_gemm_reorders;
          Alcotest.test_case "bicg split-interchange-merge" `Quick
            test_stage1_bicg_split_interchange_merge;
          Alcotest.test_case "jacobi keeps fusion" `Quick
            test_stage1_jacobi_keeps_user_fusion;
          Alcotest.test_case "seidel skews" `Quick test_stage1_seidel_skews;
          Alcotest.test_case "stage1 semantics" `Slow
            test_stage1_transformed_programs_are_correct;
        ] );
      ( "stage2",
        [
          Alcotest.test_case "improves and fits" `Quick test_stage2_improves_and_fits;
          Alcotest.test_case "respects scaled device" `Quick
            test_stage2_respects_scaled_device;
          Alcotest.test_case "tile vectors" `Quick test_stage2_tile_vectors;
          Alcotest.test_case "realize cases" `Quick test_realize_cases;
          Alcotest.test_case "unit splice equals whole-program realization"
            `Slow test_splice_matches_whole_program;
          Alcotest.test_case "derived dependences equal a full analysis"
            `Slow test_derived_deps_match_full_analysis;
          Alcotest.test_case "custom strategy group" `Quick
            test_custom_strategy_group;
          Alcotest.test_case "decision trace" `Quick test_trace_records_decisions;
          Alcotest.test_case "bottleneck pick equals the list walk" `Quick
            test_bottleneck_matches_list_walk;
          Alcotest.test_case "search reports and partition plans" `Slow
            test_search_reports_and_plans;
        ] );
      ( "engine",
        [
          Alcotest.test_case "end-to-end semantics" `Slow
            test_engine_end_to_end_correct;
          Alcotest.test_case "bottleneck balance on 3MM" `Quick
            test_engine_bottleneck_balance;
        ] );
    ]
