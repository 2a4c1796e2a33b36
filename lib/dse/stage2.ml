open Pom_dsl
open Pom_polyir
open Pom_hls
module Memo = Pom_pipeline.Memo

type result = {
  directives : Schedule.t list;
  prog : Prog.t;
  report : Report.t;
  iterations : int;
  tile_vectors : (string * int list) list;
  trace : string list;
  evaluations : int;
  report_cache_hits : int;
  cold_syntheses : int;
  pruned : int;
  sched : Pom_par.Par.Chunks.stats;  (* read by perfbench/cold.ml *)
}

(* ---- parallelism realization for one compute ---- *)

(* Split [par] parallel copies over the two innermost levels: prefer a
   balanced [.., f_prev, f_last] spread (the paper's [1, 2, 16]-style
   vectors) over a single wide unroll when the nest is deep enough. *)
let factor_split ~depth ~e_prev ~e_last par =
  let inner_cap = if depth >= 3 then 16 else 32 in
  let f_last = min (min par e_last) inner_cap in
  let f_prev = if depth >= 2 then min (min (par / f_last) e_prev) 16 else 1 in
  (f_prev, f_last)

type realization = {
  hw_directives : Schedule.t list;
  tile_vector : int list;  (* factor per (post-stage-1) loop level *)
}

let realize cname order extents par =
  let d = List.length order in
  let nth = List.nth in
  let e_last = nth extents (d - 1) in
  let e_prev = if d >= 2 then nth extents (d - 2) else 1 in
  let l_last = nth order (d - 1) in
  let l_prev = if d >= 2 then nth order (d - 2) else l_last in
  let f_prev, f_last = factor_split ~depth:d ~e_prev ~e_last par in
  let vector =
    List.mapi
      (fun i _ ->
        if i = d - 1 then f_last else if i = d - 2 then f_prev else 1)
      order
  in
  let pipe dim = Schedule.pipeline cname dim 1 in
  let dirs =
    match (f_prev, f_last) with
    | 1, 1 -> [ pipe l_last ]
    | 1, f when f < e_last ->
        [
          Schedule.split cname l_last f (l_last ^ "_o") (l_last ^ "_i");
          pipe (l_last ^ "_o");
          Schedule.unroll cname (l_last ^ "_i") f;
        ]
    | 1, _ ->
        (* full unroll of the innermost level *)
        Schedule.unroll cname l_last e_last
        :: (if d >= 2 then [ pipe l_prev ] else [])
    | fp, fl when fl < e_last ->
        [
          Schedule.tile cname l_prev l_last fp fl (l_prev ^ "_o")
            (l_last ^ "_o") (l_prev ^ "_i") (l_last ^ "_i");
          pipe (l_last ^ "_o");
          Schedule.unroll cname (l_prev ^ "_i") fp;
          Schedule.unroll cname (l_last ^ "_i") fl;
        ]
    | fp, _ when fp < e_prev ->
        [
          Schedule.split cname l_prev fp (l_prev ^ "_o") (l_prev ^ "_i");
          pipe (l_prev ^ "_o");
          Schedule.unroll cname (l_prev ^ "_i") fp;
          Schedule.unroll cname l_last e_last;
        ]
    | _, _ ->
        (* both innermost levels fully unrolled *)
        [ Schedule.unroll cname l_prev e_prev; Schedule.unroll cname l_last e_last ]
        @ (if d >= 3 then [ pipe (nth order (d - 3)) ] else [])
  in
  { hw_directives = dirs; tile_vector = vector }

(* ---- array partitioning matched to the unrolled dimensions ---- *)

let partition_plan ?(bank_cap = 64) (prog : Prog.t) =
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
        let write, reads = Summary.transformed_accesses s in
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
  (* Bank budget: beyond ~64 banks per array the crossbar cost outweighs
     the port gain; shed factors by halving the widest dimension, trading a
     slightly larger II for feasible muxing (the paper's BICG lands at II=2
     through exactly this trade). *)
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
        List.map2 (fun f extent -> min f (min extent 64)) factors
          p.Placeholder.shape
      in
      let factors = cap_banks factors in
      if List.exists (fun f -> f > 1) factors then
        Some (Schedule.partition p.Placeholder.name factors Schedule.Cyclic)
      else None)
    placeholders

(* ---- optimization units (fusion groups) ---- *)

type unit_state = {
  id : int;  (* leading schedule constant *)
  members : (string * string list * int list) list;
      (* compute, loop order, extents after stage 1 *)
  mutable par : int;
  max_par : int;
  mutable active : bool;
  mutable realization : realization list;  (* one per member *)
}

let member_info (s : Stmt_poly.t) =
  let order = Stmt_poly.loop_order s in
  let extents =
    List.map
      (fun dim ->
        match Pom_poly.Basic_set.const_range dim s.Stmt_poly.domain with
        | Some lb, Some ub -> ub - lb + 1
        | _ -> invalid_arg "Stage2: unbounded loop")
      order
  in
  (Stmt_poly.name s, order, extents)

let units_of (prog : Prog.t) ~par_cap =
  let ids =
    List.sort_uniq Int.compare
      (List.map
         (fun (s : Stmt_poly.t) -> Pom_poly.Sched.const_at s.Stmt_poly.sched 0)
         prog.Prog.stmts)
  in
  List.map
    (fun id ->
      let members =
        List.filter_map
          (fun (s : Stmt_poly.t) ->
            if Pom_poly.Sched.const_at s.Stmt_poly.sched 0 = id then
              Some (member_info s)
            else None)
          prog.Prog.stmts
      in
      let max_par =
        List.fold_left
          (fun acc (_, order, extents) ->
            let d = List.length order in
            let e_last = List.nth extents (d - 1) in
            let e_prev = if d >= 2 then List.nth extents (d - 2) else 1 in
            min acc (min par_cap (e_last * e_prev)))
          par_cap members
      in
      {
        id;
        members;
        par = 1;
        max_par;
        active = true;
        realization =
          List.map
            (fun (c, order, extents) -> realize c order extents 1)
            members;
      })
    ids

let realize_unit u =
  u.realization <-
    List.map (fun (c, order, extents) -> realize c order extents u.par) u.members

(* ---- full-program evaluation ---- *)

let hw_directives units =
  List.concat_map
    (fun u -> List.concat_map (fun r -> r.hw_directives) u.realization)
    units

(* The shared work of a candidate is memoized at two levels: the
   base-directive prefix application (the schedule memo, one entry for the
   whole search) and the candidate's realization plan — hardware-directive
   application plus the derived partition plan (the plan memo, one entry
   per design point).  The search asks for each candidate's plan twice:
   the analyzer's pre-pruning check reads its scheduled program, then the
   evaluation reads its directive list — the second request is a lookup. *)
let realization_plan ?bank_cap ~cache func base hw =
  Memo.plan cache
    ~key:(Memo.plan_key ~base ~hw ~bank_cap func)
    (fun () ->
      let prog0 = Memo.schedule cache func base in
      let prog_hw = List.fold_left Prog.apply prog0 hw in
      let parts = partition_plan ?bank_cap prog_hw in
      {
        Memo.plan_directives = base @ hw @ parts;
        plan_parts = parts;
        plan_prog_hw = prog_hw;
      })

let evaluate ?bank_cap ~cache ~device ~composition func base_directives units =
  let plan =
    realization_plan ?bank_cap ~cache func base_directives (hw_directives units)
  in
  let prog, report =
    Memo.synthesize cache ~composition ~device
      ~directives:plan.Memo.plan_directives func (fun () ->
        List.fold_left Prog.apply plan.Memo.plan_prog_hw plan.Memo.plan_parts)
  in
  (prog, plan.Memo.plan_directives, report)

(* ---- the bottleneck-oriented search ---- *)

let unit_latency (report : Report.t) u =
  Option.value ~default:0 (List.assoc_opt u.id report.Report.group_latencies)

(* Each data path as the units it crosses, in path order without repeats.
   Units never change membership during a search, so this is computed once
   per search, not once per iteration. *)
let unit_paths ~paths units =
  let unit_of_compute name =
    List.find_opt
      (fun u -> List.exists (fun (c, _, _) -> c = name) u.members)
      units
  in
  List.map
    (fun path ->
      let us = List.filter_map unit_of_compute path in
      let seen = Hashtbl.create 4 in
      List.filter
        (fun u ->
          if Hashtbl.mem seen u.id then false
          else begin
            Hashtbl.add seen u.id ();
            true
          end)
        us)
    paths

let critical_bottleneck ~report unit_paths =
  (* each path's weight once per report, not once per comparison; the sort
     is stable, so ties keep path order *)
  let weighted =
    List.map
      (fun us ->
        (List.fold_left (fun acc u -> acc + unit_latency report u) 0 us, us))
      unit_paths
  in
  let sorted =
    List.stable_sort (fun (wa, _) (wb, _) -> Int.compare wb wa) weighted
  in
  List.find_map
    (fun (_, us) ->
      let actives = List.filter (fun u -> u.active) us in
      match
        List.sort
          (fun a b -> Int.compare (unit_latency report b) (unit_latency report a))
          actives
      with
      | u :: _ -> Some u
      | [] -> None)
    sorted

let default_steps par = [ par * 2; par * 3 / 2 ]

let run ?(device = Device.xc7z020) ?(composition = Resource.Reuse)
    ?(par_cap = 64) ?bank_cap ?(steps = default_steps) ?(cache = Memo.global)
    ?checkpoint func (stage1 : Stage1.t) =
  (* Journal every genuinely synthesized design point; on resume the intact
     records are replayed into the report memo first, so the search below
     re-derives the exact decision sequence of the uninterrupted search
     from warm cache entries. *)
  Memo.with_journal cache checkpoint @@ fun journal_notes ->
  let memo0 = Memo.snapshot cache in
  let base = stage1.Stage1.directives in
  let prog_base = Memo.schedule cache func base in
  let units = units_of prog_base ~par_cap in
  let unit_paths = unit_paths ~paths:stage1.Stage1.paths units in
  let evaluations = ref 0 in
  let counted thunk =
    incr evaluations;
    (* the per-evaluation fault site: [kill] here simulates the process
       dying on the Nth evaluation (the kill-and-resume test) *)
    Pom_resilience.Fault.point "dse:evaluate";
    thunk ()
  in
  let evaluate_counted () =
    counted (fun () ->
        evaluate ?bank_cap ~cache ~device ~composition func base units)
  in
  let current = ref (evaluate_counted ()) in
  (* the incumbent's hardware signature, recomputed only when a candidate
     is accepted — every pre-pruning check compares against it *)
  let signature_of (prog, _, _) = lazy (Pom_analysis.Lint.hw_signature prog) in
  let incumbent_signature = ref (signature_of !current) in
  let trace = ref [] in
  let log fmt = Format.kasprintf (fun m -> trace := m :: !trace) fmt in
  List.iter (fun m -> log "%s" m) journal_notes;
  List.iter
    (fun u ->
      log "unit g%d {%s}: max parallelism %d" u.id
        (String.concat ", " (List.map (fun (c, _, _) -> c) u.members))
        u.max_par)
    units;
  let iterations = ref 0 in
  let pruned = ref 0 in
  (* the analyzer's pre-pruning oracle sees the candidate's scheduled
     program (cheap: memoized base + directive application) but never its
     synthesis *)
  let candidate_prog () =
    (realization_plan ?bank_cap ~cache func base (hw_directives units))
      .Memo.plan_prog_hw
  in
  let continue_ = ref true in
  while !continue_ && !iterations < 60 do
    incr iterations;
    let _, _, report = !current in
    match critical_bottleneck ~report unit_paths with
    | None -> continue_ := false
    | Some u ->
        (* escalate by doubling; when the doubled design no longer fits or
           helps, retry once with a 1.5x step before giving up on the
           node (the exit mechanism) *)
        let try_par par =
          if par <= u.par || par > u.max_par then false
          else begin
            let saved_par = u.par and saved_real = u.realization in
            u.par <- par;
            realize_unit u;
            if
              not
                (Pom_analysis.Lint.gains_parallelism
                   ~before:(Lazy.force !incumbent_signature)
                   (candidate_prog ()))
            then begin
              (* factor clamping collapsed the request onto the incumbent's
                 realization: identical hardware, identical QoR — skip the
                 synthesis entirely *)
              incr pruned;
              log
                "iter %d: bottleneck g%d par %d -> %d pruned by the analyzer \
                 (hardware signature unchanged, synthesis skipped)"
                !iterations u.id saved_par par;
              u.par <- saved_par;
              u.realization <- saved_real;
              false
            end
            else begin
            match evaluate_counted () with
            | exception (Pom_resilience.Fault.Killed _ as e) ->
                (* simulated process death: never absorbed *)
                raise e
            | exception (Pom_resilience.Budget.Budget_exceeded { reason; _ }
                         as e) ->
                u.par <- saved_par;
                u.realization <- saved_real;
                if Pom_resilience.Policy.degrading () then begin
                  (* Degradation policy: out of time mid-search means keep
                     the incumbent — a complete, legal design point — rather
                     than losing the whole compile. *)
                  log
                    "iter %d: budget exhausted (%s); search stopped at the \
                     incumbent"
                    !iterations reason;
                  continue_ := false;
                  false
                end
                else raise e
            | exception e when Pom_resilience.Policy.degrading () ->
                (* Degradation policy: one broken candidate must not sink
                   the search — skip it and keep exploring (POM304). *)
                u.par <- saved_par;
                u.realization <- saved_real;
                log
                  "iter %d: candidate g%d par %d -> %d evaluation failed \
                   (%s); candidate skipped (POM304)"
                  !iterations u.id saved_par par (Printexc.to_string e);
                false
            | trial ->
            let _, _, trial_report = trial in
            let _, _, cur_report = !current in
            if
              trial_report.Report.feasible
              && trial_report.Report.latency < cur_report.Report.latency
            then begin
              log "iter %d: bottleneck g%d par %d -> %d accepted (%d -> %d cycles)"
                !iterations u.id saved_par par cur_report.Report.latency
                trial_report.Report.latency;
              current := trial;
              incumbent_signature := signature_of trial;
              true
            end
            else begin
              log "iter %d: bottleneck g%d par %d -> %d rejected (%s)"
                !iterations u.id saved_par par
                (if not trial_report.Report.feasible then "exceeds budget"
                 else "no latency gain");
              u.par <- saved_par;
              u.realization <- saved_real;
              false
            end
            end
          end
        in
        if not (List.exists try_par (steps u.par)) then begin
          log "iter %d: g%d removed from the optimization list (exit mechanism)"
            !iterations u.id;
          u.active <- false
        end
  done;
  let prog0, directives, _ = !current in
  (* Re-request the winning design point through the memo: the search just
     evaluated it, so this final QoR query is served from cache — the same
     mechanism that makes any later re-synthesis of this point (the compile
     pipeline's hls-synthesize pass, a --trace re-run) free. *)
  let prog, report =
    counted (fun () ->
        Memo.synthesize cache ~composition ~device ~directives
          func (fun () -> prog0))
  in
  let memo1 = Memo.snapshot cache in
  let report_cache_hits = memo1.Memo.report_hits - memo0.Memo.report_hits in
  let cold_syntheses = memo1.Memo.report_misses - memo0.Memo.report_misses in
  log
    "memo: %d of %d QoR evaluations served from cache (%d cold syntheses, %d \
     schedule-prefix hits)"
    report_cache_hits !evaluations cold_syntheses
    (memo1.Memo.schedule_hits - memo0.Memo.schedule_hits);
  if !pruned > 0 then
    log "analyzer: %d design points pruned before synthesis" !pruned;
  let tile_vectors =
    List.concat_map
      (fun u ->
        List.map2
          (fun (c, _, _) r -> (c, r.tile_vector))
          u.members u.realization)
      units
  in
  {
    directives;
    prog;
    report;
    iterations = !iterations;
    tile_vectors;
    trace = List.rev !trace;
    evaluations = !evaluations;
    report_cache_hits;
    cold_syntheses;
    pruned = !pruned;
    sched = { Pom_par.Par.Chunks.chunks = 0; steals = 0; splits = 0 };
  }
