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

type unit_state = {
  id : int;
  members : (string * string list * int list) list;
  mutable par : int;
  mutable realization : Stage2.realization list;
}

let member_info (s : Stmt_poly.t) =
  let order = Stmt_poly.loop_order s in
  let extents =
    List.map
      (fun dim ->
        match Pom_poly.Basic_set.const_range dim s.Stmt_poly.domain with
        | Some lb, Some ub -> ub - lb + 1
        | _ -> invalid_arg "Scalehls: unbounded loop")
      order
  in
  (Stmt_poly.name s, order, extents)

let realize_unit u =
  u.realization <-
    List.map
      (fun (c, order, extents) -> Stage2.realize c order extents u.par)
      u.members

let hw_directives units =
  List.concat_map
    (fun u -> List.concat_map (fun r -> r.Stage2.hw_directives) u.realization)
    units

(* The plan (hardware application + partition derivation) is shared with
   {!Stage2.realization_plan} — same memo, same key — so a ladder rung the
   POM search already planned costs a lookup here. *)
let evaluate ~cache ~device ~composition ~latency_mode func base units =
  let plan = Stage2.realization_plan ~cache func base (hw_directives units) in
  let prog, report =
    Memo.synthesize cache ~composition ~latency_mode ~device
      ~directives:plan.Memo.plan_directives func (fun () ->
        List.fold_left Prog.apply plan.Memo.plan_prog_hw plan.Memo.plan_parts)
  in
  (prog, plan.Memo.plan_directives, report)

(* Per-unit operator usage — the quantity ScaleHLS's per-loop budget check
   sees (global banking overhead is not in it).  Each check re-profiles the
   unit's statements (profiles are per statement, so the other units'
   would be discarded unread), and counts as a QoR evaluation. *)
let unit_usage ?count (prog : Prog.t) u =
  (match count with Some c -> incr c | None -> ());
  let mine =
    List.filter_map
      (fun (s : Stmt_poly.t) ->
        if Pom_poly.Sched.const_at s.Stmt_poly.sched 0 = u.id then
          Some (Summary.of_stmt prog s)
        else None)
      prog.Prog.stmts
  in
  let partitions = Report.partition_fn prog in
  let eval = Latency.eval_group ~partitions mine in
  Resource.group_usage mine eval

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
         records into the report memo, journal every synthesized rung, and
         let the greedy walk replay a resumed run into hits *)
      Memo.with_journal cache checkpoint @@ fun _journal_notes ->
      let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
      let func = st.State.func and device = st.State.device in
      let composition = st.State.composition
      and latency_mode = st.State.latency_mode in
      let base = st.State.directives in
      let prog_base = Memo.schedule cache func base in
      let huge =
        List.exists
          (fun (c : Compute.t) ->
            List.exists
              (fun (v : Var.t) -> Var.extent v >= 8192)
              c.Compute.iters)
          (Func.computes func)
      in
      let units =
        let ids =
          List.sort_uniq Int.compare
            (List.map
               (fun (s : Stmt_poly.t) ->
                 Pom_poly.Sched.const_at s.Stmt_poly.sched 0)
               prog_base.Prog.stmts)
        in
        List.map
          (fun id ->
            let members =
              List.filter_map
                (fun (s : Stmt_poly.t) ->
                  if Pom_poly.Sched.const_at s.Stmt_poly.sched 0 = id then
                    Some (member_info s)
                  else None)
                prog_base.Prog.stmts
            in
            let u = { id; members; par = 1; realization = [] } in
            realize_unit u;
            u)
          ids
      in
      let evaluations = ref 0 in
      let pruned = ref 0 in
      let eval () =
        incr evaluations;
        (* the per-evaluation fault site shared with Stage2 *)
        Pom_resilience.Fault.point "dse:evaluate";
        evaluate ~cache ~device ~composition ~latency_mode func base units
      in
      let stopped = ref false in
      let candidate_prog () =
        (Stage2.realization_plan ~cache func base (hw_directives units))
          .Memo.plan_prog_hw
      in
      let current = ref (eval ()) in
      (* the incumbent's hardware signature, recomputed only when a rung
         is accepted (as in {!Stage2.run}) *)
      let signature_of (prog, _, _) =
        lazy (Pom_analysis.Lint.hw_signature prog)
      in
      let incumbent_signature = ref (signature_of !current) in
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
          (fun u ->
            if not !stopped then begin
            (* greedy: push this unit as far as the remaining budget allows *)
            let continue_ = ref true in
            List.iter
              (fun par ->
                if !continue_ then begin
                  let saved_par = u.par and saved_real = u.realization in
                  u.par <- par;
                  realize_unit u;
                  if
                    not
                      (Pom_analysis.Lint.gains_parallelism
                         ~before:(Lazy.force !incumbent_signature)
                         (candidate_prog ()))
                  then begin
                    (* analyzer pre-pruning: factor clamping collapsed this
                       rung onto the incumbent's realization — same outcome
                       as factor saturation, minus the synthesis *)
                    incr pruned;
                    u.par <- saved_par;
                    u.realization <- saved_real
                  end
                  else begin
                  match eval () with
                  | exception (Pom_resilience.Fault.Killed _ as e) ->
                      (* simulated process death: never absorbed *)
                      raise e
                  | exception (Pom_resilience.Budget.Budget_exceeded _ as e) ->
                      u.par <- saved_par;
                      u.realization <- saved_real;
                      if Pom_resilience.Policy.degrading () then begin
                        (* out of time mid-walk: stop the whole greedy
                           sweep at the incumbent *)
                        stopped := true;
                        continue_ := false
                      end
                      else raise e
                  | exception _ when Pom_resilience.Policy.degrading () ->
                      (* failed rung evaluation: backed out like factor
                         saturation, the climb continues (POM304) *)
                      u.par <- saved_par;
                      u.realization <- saved_real
                  | (trial_prog, _, trial_report) as trial ->
                  let usage = unit_usage ~count:evaluations trial_prog u in
                  let _, _, cur_report = !current in
                  if
                    usage_fits !budget usage
                    && trial_report.Report.latency < cur_report.Report.latency
                  then begin
                    current := trial;
                    incumbent_signature := signature_of trial
                  end
                  else if
                    usage_fits !budget usage
                    && trial_report.Report.latency = cur_report.Report.latency
                  then begin
                    (* ladder step changed nothing (factor saturation): back
                       it out but keep climbing *)
                    u.par <- saved_par;
                    u.realization <- saved_real
                  end
                  else begin
                    u.par <- saved_par;
                    u.realization <- saved_real;
                    continue_ := false
                  end
                  end
                end)
              ladder;
            let prog, _, _ = !current in
            budget := usage_sub !budget (unit_usage ~count:evaluations prog u)
            end)
          units;
      let prog, directives, report = !current in
      let tile_vectors =
        List.concat_map
          (fun u ->
            List.map2
              (fun (c, _, _) (r : Stage2.realization) ->
                (c, r.Stage2.tile_vector))
              u.members u.realization)
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
