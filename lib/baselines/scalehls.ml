open Pom_dsl
open Pom_polyir
open Pom_hls
open Pom_dse
open Pom_pipeline

type result = {
  directives : Schedule.t list;
  prog : Prog.t;
  report : Report.t;
  dse_time_s : float;
  tile_vectors : (string * int list) list;
  evaluations : int;
  pruned : int;
}

(* Interchange-only transformation stage: fused nests receive a single
   permutation (the first statement that asks for one wins), so the other
   statements may be left with tight dependences. *)
let interchange_stage func =
  let graph = Pom_depgraph.Graph.build func in
  let reorder_of (node : Pom_depgraph.Graph.node) =
    match Pom_depgraph.Hints.suggest node.Pom_depgraph.Graph.fine with
    | Pom_depgraph.Hints.Reorder order -> Some order
    | Pom_depgraph.Hints.Keep | Pom_depgraph.Hints.Skew_hint _
    | Pom_depgraph.Hints.Tight _ ->
        None
  in
  let fused = Butil.fused_computes func in
  let fused_order =
    List.find_map
      (fun n ->
        if List.mem n.Pom_depgraph.Graph.compute.Compute.name fused then
          reorder_of n
        else None)
      (Pom_depgraph.Graph.nodes graph)
  in
  List.concat_map
    (fun (node : Pom_depgraph.Graph.node) ->
      let c = node.Pom_depgraph.Graph.compute in
      let current = Compute.iter_names c in
      let desired =
        if List.mem c.Compute.name fused then fused_order
        else reorder_of node
      in
      match desired with
      | Some order when List.sort compare order = List.sort compare current ->
          Butil.realize_order c.Compute.name current order
      | Some _ | None -> [])
    (Pom_depgraph.Graph.nodes graph)

let interchange_pass () =
  Pass.v ~name:"scalehls-interchange"
    ~descr:"single-IR loop-order permutation (no distribution, no skew)"
    (fun (st : State.t) ->
      {
        st with
        State.directives =
          st.State.directives @ interchange_stage st.State.func;
      })

(* Denser factor ladder than POM's doubling: more trials, longer DSE. *)
let ladder = [ 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64 ]

(* Per-unit operator usage — the quantity ScaleHLS's per-loop budget check
   sees (global banking overhead is not in it), priced from the unit's own
   profiles under [prog]'s partitioning: the price the rung's evaluation
   just put in the search's table.  Each check counts as a QoR
   evaluation. *)
let unit_usage ~count ~prices ~device (prog : Prog.t) (u : Stage2.unit_state) =
  incr count;
  Report.group_usage prices ~device prog (List.map snd u.Stage2.realized)

let usage_fits (budget : Resource.usage) (u : Resource.usage) =
  u.Resource.dsp <= budget.Resource.dsp
  && u.Resource.lut <= budget.Resource.lut
  && u.Resource.ff <= budget.Resource.ff

let usage_sub (a : Resource.usage) (b : Resource.usage) =
  {
    Resource.dsp = a.Resource.dsp - b.Resource.dsp;
    lut = a.Resource.lut - b.Resource.lut;
    ff = a.Resource.ff - b.Resource.ff;
    bram = a.Resource.bram - b.Resource.bram;
  }

let greedy_pass ?(cache = Memo.global) ?checkpoint ?(on_result = fun _ -> ())
    () =
  Pass.v ~name:"scalehls-greedy-dse"
    ~descr:"greedy program-order factor-ladder DSE under a dataflow budget"
    (fun (st : State.t) ->
      (* same journal protocol as {!Pom_dse.Stage2.run}: replay intact
         records into the report memo, journal every synthesized rung, let
         the greedy walk replay a resumed run into hits, and trace the
         journal's notes *)
      Memo.with_journal cache checkpoint @@ fun journal_notes ->
      let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
      let func = st.State.func and device = st.State.device in
      let composition = st.State.composition
      and latency_mode = st.State.latency_mode in
      let base = st.State.directives in
      let fkey = Memo.func_key func in
      let base_key = Memo.directives_key base in
      let prog_base = Memo.schedule ~fkey ~dkey:base_key cache func base in
      let huge =
        List.exists
          (fun (c : Compute.t) ->
            List.exists
              (fun (v : Var.t) -> Var.extent v >= 8192)
              c.Compute.iters)
          (Func.computes func)
      in
      let units = Stage2.units_of prog_base in
      let prices = Report.prices () in
      let evaluations = ref 0 in
      let pruned = ref 0 in
      let eval () =
        incr evaluations;
        (* the per-evaluation fault site shared with Stage2 *)
        Pom_resilience.Fault.point "dse:evaluate";
        Stage2.evaluate ~prices ~cache ~fkey ~base_key ~device ~composition
          ~latency_mode func base units
      in
      let stopped = ref false in
      let current = ref (eval ()) in
      (* the incumbent's loop signature, replaced by each accepted rung's
         (as in {!Stage2.run}) *)
      let signature () =
        Pom_analysis.Lint.profiles_signature (snd (Stage2.splice prog_base units))
      in
      let incumbent_signature = ref (signature ()) in
      let budget =
        ref
          {
            Resource.dsp = device.Device.dsp;
            lut = device.Device.lut;
            ff = device.Device.ff;
            bram = Resource.bram18_blocks device;
          }
      in
      if not huge then
        List.iter
          (fun (u : Stage2.unit_state) ->
            if not !stopped then begin
            (* greedy: push this unit as far as the remaining budget allows *)
            let continue_ = ref true in
            List.iter
              (fun par ->
                if !continue_ then begin
                  (* realization, plan, pre-pruning check and evaluation
                     fail together: any failure backs the rung out *)
                  let decide () =
                    (* planned here and again by the evaluation, as in
                       {!Stage2.run} *)
                    ignore
                      (Stage2.realization_plan ~cache ~fkey ~base_key func base
                         units);
                    let rung_signature = signature () in
                    if rung_signature = !incumbent_signature then begin
                      (* analyzer pre-pruning: factor clamping collapsed
                         this rung onto the incumbent's realization — same
                         outcome as factor saturation, minus the synthesis *)
                      incr pruned;
                      false
                    end
                    else begin
                      let ((trial_prog, _, trial_report) as trial) = eval () in
                      let usage =
                        unit_usage ~count:evaluations ~prices ~device trial_prog
                          u
                      in
                      let _, _, cur_report = !current in
                      if
                        usage_fits !budget usage
                        && trial_report.Report.latency
                           < cur_report.Report.latency
                      then begin
                        current := trial;
                        incumbent_signature := rung_signature;
                        true
                      end
                      else begin
                        (* a ladder step that changed nothing (factor
                           saturation) is backed out but the climb goes
                           on; one that does not fit or is slower ends it *)
                        if
                          not
                            (usage_fits !budget usage
                            && trial_report.Report.latency
                               = cur_report.Report.latency)
                        then continue_ := false;
                        false
                      end
                    end
                  in
                  match Stage2.try_move u par decide with
                  | exception (Pom_resilience.Fault.Killed _ as e) ->
                      (* simulated process death: never absorbed *)
                      raise e
                  | exception (Pom_resilience.Budget.Budget_exceeded _ as e) ->
                      if Pom_resilience.Policy.degrading () then begin
                        (* out of time mid-walk: stop the whole greedy
                           sweep at the incumbent *)
                        stopped := true;
                        continue_ := false
                      end
                      else raise e
                  | exception _ when Pom_resilience.Policy.degrading () ->
                      (* failed rung: backed out like factor saturation,
                         the climb continues (POM304) *)
                      ()
                  | (_ : bool) -> ()
                end)
              ladder;
            let prog, _, _ = !current in
            budget :=
              usage_sub !budget
                (unit_usage ~count:evaluations ~prices ~device prog u)
            end)
          units;
      let prog, directives, report = !current in
      let tile_vectors =
        List.concat_map
          (fun u ->
            List.map2
              (fun (c, _, _) (r : Stage2.realization) ->
                (c, r.Stage2.tile_vector))
              u.Stage2.members u.Stage2.realization)
          units
      in
      let dse_time_s = Unix.gettimeofday () -. wall0 in
      on_result
        {
          directives;
          prog;
          report;
          dse_time_s;
          tile_vectors;
          evaluations = !evaluations;
          pruned = !pruned;
        };
      {
        st with
        State.prog = Some prog;
        report = Some report;
        directives;
        tile_vectors;
        trace = st.State.trace @ journal_notes;
        dse_time_s = st.State.dse_time_s +. dse_time_s;
        dse_cpu_s = st.State.dse_cpu_s +. (Sys.time () -. cpu0);
      })

let passes ?cache ?checkpoint ?on_result () =
  [
    interchange_pass ();
    Passes.structural ();
    greedy_pass ?cache ?checkpoint ?on_result ();
  ]

let run ?(device = Device.xc7z020) ?(dnn = false) func =
  let result = ref None in
  let latency_mode = if dnn then `Dataflow else `Sequential in
  let _st, _records =
    Pass.run
      (passes ~on_result:(fun r -> result := Some r) ())
      (State.init ~composition:Resource.Dataflow ~latency_mode ~device func)
  in
  match !result with Some r -> r | None -> assert false
