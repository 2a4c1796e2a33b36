open Pom_dsl
open Pom_polyir
open Pom_hls
open Pom_dse
open Pom_pipeline

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
          Stage1.realize_order c.Compute.name current order
      | Some _ | None -> [])
    (Pom_depgraph.Graph.nodes graph)

(* single-IR loop-order permutation (no distribution, no skew) *)
let interchange_pass () =
  Pass.v ~name:"scalehls-interchange"
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
let unit_usage ~count ~device s (prog : Prog.t) (u : Stage2.unit_state) =
  incr count;
  Report.group_usage (Stage2.prices s) ~device prog u.Stage2.realized

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

(* greedy program-order factor-ladder DSE under a dataflow budget *)
let greedy_pass () =
  Pass.v ~name:"scalehls-greedy-dse"
    (fun (st : State.t) ->
      let wall0 = Unix.gettimeofday () in
      let func = st.State.func and device = st.State.device in
      let s =
        Stage2.start ~device ~composition:st.State.composition
          ~latency_mode:st.State.latency_mode func st.State.directives
      in
      let huge =
        List.exists
          (fun (c : Compute.t) ->
            List.exists
              (fun (v : Var.t) -> Var.extent v >= 8192)
              c.Compute.iters)
          (Func.computes func)
      in
      let usage_checks = ref 0 in
      let latency () =
        let _, _, report = Stage2.incumbent s in
        report.Report.latency
      in
      let trace = ref [] in
      let log fmt = Format.kasprintf (fun m -> trace := m :: !trace) fmt in
      let stopped = ref false in
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
              (* greedy: push this unit as far as the remaining budget
                 allows *)
              let climbing = ref true in
              List.iter
                (fun par ->
                  if !climbing then begin
                    let from = u.Stage2.par and before = latency () in
                    let fits = ref false in
                    let accept prog (trial : Report.t) =
                      fits :=
                        usage_fits !budget
                          (unit_usage ~count:usage_checks ~device s prog u);
                      !fits && trial.Report.latency < before
                    in
                    let rung fmt =
                      log ("rung g%d par %d -> %d " ^^ fmt) u.Stage2.id from par
                    in
                    match Stage2.step s u par ~accept with
                    | Stage2.Accepted ->
                        rung "accepted (%d -> %d cycles)" before (latency ())
                    | Stage2.Rejected trial ->
                        (* a rung that changed nothing (factor saturation) is
                           backed out but the climb goes on; one that does
                           not fit or is slower ends it *)
                        let saturated =
                          !fits && trial.Report.latency = before
                        in
                        if not saturated then climbing := false;
                        rung "rejected (%s); climb %s"
                          (if saturated then "saturated"
                           else if not !fits then "over the remaining budget"
                           else "no latency gain")
                          (if saturated then "goes on" else "stopped")
                    | Stage2.Pruned ->
                        (* same outcome as factor saturation, minus the
                           synthesis *)
                        rung
                          "pruned by the analyzer (hardware signature \
                           unchanged, synthesis skipped)"
                    | Stage2.Failed e ->
                        (* backed out like factor saturation: the climb
                           goes on *)
                        rung "evaluation failed (%s); rung skipped (POM304)"
                          (Printexc.to_string e)
                    | Stage2.Out_of_budget reason ->
                        (* out of time mid-walk: stop the whole greedy sweep
                           at the incumbent *)
                        stopped := true;
                        climbing := false;
                        rung "budget exhausted (%s); sweep stopped at the \
                              incumbent"
                          reason
                  end)
                ladder;
              let prog, _, _ = Stage2.incumbent s in
              budget :=
                usage_sub !budget
                  (unit_usage ~count:usage_checks ~device s prog u)
            end)
          (Stage2.units s);
      if Stage2.pruned s > 0 then
        log "analyzer: %d design points pruned before synthesis"
          (Stage2.pruned s);
      let prog, directives, report = Stage2.incumbent s in
      let tile_vectors = Stage2.tile_vectors s in
      {
        st with
        State.prog = Some prog;
        report = Some report;
        directives;
        tile_vectors;
        evaluations = Stage2.evaluations s + !usage_checks;
        trace = st.State.trace @ List.rev !trace;
        dse_time_s = st.State.dse_time_s +. (Unix.gettimeofday () -. wall0);
      })

let passes () = [ interchange_pass (); Passes.structural (); greedy_pass () ]
