open Pom_poly
module Diagnostic = Pom_analysis.Diagnostic

type verdict =
  | Pass
  | Skip of string
  | Precision of string
  | Fail of Diagnostic.t

let is_fail = function Fail _ -> true | _ -> false

let pp_verdict ppf = function
  | Pass -> Format.pp_print_string ppf "pass"
  | Skip r -> Format.fprintf ppf "skip (%s)" r
  | Precision r -> Format.fprintf ppf "precision (%s)" r
  | Fail d -> Format.fprintf ppf "FAIL %s: %s" d.Diagnostic.code d.message

let fail ~code ~loc ?note msg = Fail (Diagnostic.error ~code ~loc ?note msg)

(* ---------- polyhedral oracle ---------- *)

let env_of dims point =
  let tbl = List.combine dims point in
  fun d -> List.assoc d tbl

(* ground truth: the integer points of the case, by brute force over the
   bounding box, lexicographic *)
let brute_points (p : Case.poly) s =
  List.filter
    (fun pt -> Basic_set.mem (env_of p.Case.dims pt) s)
    (Case.box_points p)

(* FM is exact over the rationals; over the integers it can overapproximate
   a projection unless the eliminated dimension has coefficient 0/±1 in
   every constraint mentioning it (then each elimination step is exact).
   Exactness checks are gated on this; soundness checks never are. *)
let unit_coeff d s =
  List.for_all
    (fun c -> abs (Linexpr.coeff (Constr.expr c) d) <= 1)
    (Basic_set.constraints s)

(* an elimination step is exact over the integers when a unit equality on
   [d] exists (substitution path) or [d] has unit coefficient everywhere *)
let step_exact d t =
  List.exists
    (fun c ->
      Constr.is_eq c && abs (Linexpr.coeff (Constr.expr c) d) = 1)
    (Basic_set.constraints t)
  || unit_coeff d t

(* project out [order], tracking whether every step stayed exact *)
let chain_project s order =
  List.fold_left
    (fun (t, exact) d ->
      (Basic_set.project_out d t, exact && step_exact d t))
    (s, true) order

let check_order_invariance (p : Case.poly) s pts =
  let loc = [ "refute"; "poly" ] in
  let fl ?note msg = fail ~code:"POM401" ~loc ?note msg in
  match p.Case.dims with
  | [] | [ _ ] -> Pass
  | keep :: elim ->
      (* Invariance under elimination order is NOT unconditional: each FM
         step tightens inequalities over the integers (Constr.normalize),
         so different orders can produce different sound
         over-approximations when a step is inexact.  The refuter itself
         found the counterexample {3i + j - 3k + 1 >= 0, -i + 3k >= 0}
         over the [-1,1] box (committed to test/refute-corpus).  What does
         hold: soundness always (no shadow point is ever lost), and full
         agreement with the ground truth when every step is exact. *)
      let p1, exact1 = chain_project s elim
      and p2, exact2 = chain_project s (List.rev elim) in
      let onto = Basic_set.project_onto [ keep ] s in
      (* dims are sorted into the points in [dims] order and [keep] is the
         first dimension, so [List.hd] reads its coordinate *)
      let shadow = List.sort_uniq compare (List.map List.hd pts) in
      let bad =
        List.filter_map
          (fun v ->
            let env _ = v in
            let m1 = Basic_set.mem env p1
            and m2 = Basic_set.mem env p2
            and mo = Basic_set.mem env onto
            and truth = List.mem v shadow in
            if truth && not m1 then
              Some
                (Printf.sprintf "%s=%d: projection chain lost a shadow point"
                   keep v)
            else if truth && not m2 then
              Some
                (Printf.sprintf
                   "%s=%d: reversed projection chain lost a shadow point" keep
                   v)
            else if mo <> m1 then
              (* project_onto eliminates in the same dimension order as p1:
                 the two computations must agree unconditionally *)
              Some
                (Printf.sprintf
                   "%s=%d: project_onto disagrees with chained project_out"
                   keep v)
            else if exact1 && m1 <> truth then
              Some
                (Printf.sprintf
                   "%s=%d: exact projection chain disagrees with brute force"
                   keep v)
            else if exact2 && m2 <> truth then
              Some
                (Printf.sprintf
                   "%s=%d: exact reversed chain disagrees with brute force"
                   keep v)
            else None)
          (List.init (p.Case.hi - p.Case.lo + 1) (fun i -> p.Case.lo + i))
      in
      (match bad with
      | [] -> Pass
      | msg :: _ ->
          fl "elimination-order / project_onto invariance violated" ~note:msg)

let check_projections (p : Case.poly) s pts =
  let loc = [ "refute"; "poly" ] in
  let fl ?note msg = fail ~code:"POM401" ~loc ?note msg in
  let dims = p.Case.dims in
  let shadow_of d =
    (* drop dimension [d] from every ground-truth point *)
    let keep = List.filter (( <> ) d) dims in
    let sh =
      List.sort_uniq compare
        (List.map
           (fun pt ->
             List.filter_map
               (fun (dim, v) -> if dim = d then None else Some v)
               (List.combine dims pt))
           pts)
    in
    (keep, sh)
  in
  let rec per_dim = function
    | [] -> check_order_invariance p s pts
    | d :: rest -> (
        let proj = Basic_set.project_out d s in
        let keep, shadow = shadow_of d in
        (* soundness: every shadow point survives the projection (FM never
           loses rational — hence integer — points) *)
        match
          List.find_opt
            (fun pt -> not (Basic_set.mem (env_of keep pt) proj))
            shadow
        with
        | Some pt ->
            fl
              (Printf.sprintf "project_out %s dropped a shadow point" d)
              ~note:
                (Printf.sprintf
                   "point (%s) is in the shadow but not the projection"
                   (String.concat ", " (List.map string_of_int pt)))
        | None ->
            (* exactness: gated on unit coefficients of the eliminated dim *)
            if unit_coeff d s then
              let spurious =
                List.filter
                  (fun boxpt ->
                    let kept =
                      List.filter_map
                        (fun (dim, v) -> if dim = d then None else Some v)
                        (List.combine dims boxpt)
                    in
                    Basic_set.mem (env_of keep kept) proj
                    && not (List.mem kept shadow))
                  (Case.box_points p)
              in
              if spurious <> [] then
                fl
                  (Printf.sprintf
                     "project_out %s kept a point outside the shadow despite \
                      unit coefficients"
                     d)
                  ~note:
                    (Printf.sprintf "%d spurious box points"
                       (List.length spurious))
              else per_dim rest
            else per_dim rest)
  in
  per_dim dims

let check_poly (p : Case.poly) =
  let loc = [ "refute"; "poly" ] in
  let fl ?note msg = fail ~code:"POM401" ~loc ?note msg in
  let s = Case.set_of_poly p in
  let pts = brute_points p s in
  let empty = pts = [] in
  (* 1. emptiness, exact both ways *)
  if Basic_set.is_obviously_empty s && not empty then
    fl "is_obviously_empty claims a non-empty set is empty"
      ~note:(Printf.sprintf "%d points exist" (List.length pts))
  else if Feasible.is_empty s <> empty then
    fl
      (Printf.sprintf "Feasible.is_empty = %b but brute force found %d points"
         (Feasible.is_empty s) (List.length pts))
  else
    (* 2. enumeration: same points, same lexicographic order *)
    let enum = Feasible.enumerate s in
    if enum <> pts then
      fl "Feasible.enumerate disagrees with brute force"
        ~note:
          (Printf.sprintf "enumerate: %d points, brute force: %d points"
             (List.length enum) (List.length pts))
    else
      (* 3. sampling: present iff non-empty, and a member when present *)
      match (Feasible.sample s, empty) with
      | None, false -> fl "Feasible.sample found nothing in a non-empty set"
      | Some _, true -> fl "Feasible.sample produced a point of an empty set"
      | Some pt, false when not (Basic_set.mem (env_of p.Case.dims pt) s) ->
          fl "Feasible.sample produced a non-member point"
      | _ -> check_projections p s pts

(* ---------- semantic oracle ---------- *)

let check_semantic f =
  let loc = [ "refute"; "semantic" ] in
  match
    let original = Pom_polyir.Prog.reference f in
    let transformed = Pom_polyir.Prog.of_func f in
    `Built (original, transformed)
  with
  | exception Pom_polyir.Transform.Transform_error msg ->
      (* the schedule does not apply (split of a dim consumed by an earlier
         rename, non-adjacent tile, ...): not a counterexample *)
      Skip (Printf.sprintf "transform rejected: %s" msg)
  | exception Invalid_argument msg ->
      Skip (Printf.sprintf "invalid case: %s" msg)
  | `Built (original, transformed) -> (
      let violations = Pom_polyir.Legality.violations ~original ~transformed in
      match Pom_sim.Interp.divergence f transformed with
      | exception Pom_poly.Ast_build.Schedule_error msg ->
          (* the AST builder refused the schedule (e.g. statements fused
             over unequal depths): the compile aborts with a typed error
             before any design exists, so there is nothing to refute *)
          Skip (Printf.sprintf "lowering rejected: %s" msg)
      | exception Invalid_argument msg when violations <> [] ->
          (* an illegal schedule may well read out of bounds; rejection
             already protected the user *)
          Skip
            (Printf.sprintf "rejected schedule crashed the simulator: %s" msg)
      | exception Invalid_argument msg ->
          fail ~code:"POM403" ~loc
            (Printf.sprintf
               "schedule accepted by the legality engine crashed the \
                simulator: %s"
               msg)
      | divergence -> (
          match (violations, divergence = 0.0) with
          | [], true -> Pass
          | [], false ->
              fail ~code:"POM402" ~loc
                "legality engine accepted a semantics-changing schedule"
                ~note:
                  (Printf.sprintf "observed divergence %g on %d directive(s)"
                     divergence
                     (List.length (Pom_dsl.Func.directives f)))
          | _ :: _, false -> Pass (* correctly rejected *)
          | v :: _, true ->
              Precision
                (Format.asprintf "rejected but convergent: %a"
                   Pom_polyir.Legality.pp_violation v)))

(* ---------- degradation oracle ---------- *)

(* the analysis-only fault sites: a fault here may cost us a diagnostic but
   must never change the produced design *)
let analysis_sites = [ "legality:pair"; "poly:fm-projection" ]

let manual_pipeline () =
  let open Pom_pipeline in
  List.map Passes.guard
    ([
       Passes.user_schedule ();
       Passes.schedule_apply ();
       Passes.legality_check ();
       Passes.lint_pragmas ();
     ]
    @ Passes.tail ())

let run_degrade_compile f =
  let open Pom_pipeline in
  Pom_resilience.Policy.with_policy Pom_resilience.Policy.Degrade @@ fun () ->
  let st, _ =
    Pass.run (manual_pipeline ()) (State.init ~device:Pom_hls.Device.xc7z020 f)
  in
  st

let check_degrade f =
  let loc = [ "refute"; "degrade" ] in
  match run_degrade_compile f with
  | exception Pom_polyir.Transform.Transform_error msg ->
      Skip (Printf.sprintf "transform rejected: %s" msg)
  | exception Pom_resilience.Error.Error e ->
      Skip
        (Printf.sprintf "clean run aborted: %s"
           (Pom_resilience.Error.to_string e))
  | exception Invalid_argument msg ->
      Skip (Printf.sprintf "invalid case: %s" msg)
  | clean ->
      let clean_design = clean.Pom_pipeline.State.hls_c in
      let check_one acc (site, kind, visit) =
        match acc with
        | Fail _ -> acc
        | _ -> (
            Pom_resilience.Fault.configure
              (Printf.sprintf "%s=%s@%d" site kind visit);
            let result =
              Fun.protect ~finally:Pom_resilience.Fault.reset (fun () ->
                  match run_degrade_compile f with
                  | st -> `Done st
                  | exception Pom_resilience.Error.Error _ -> `Abort
                  | exception Pom_resilience.Fault.Injected _ -> `Abort
                  | exception Pom_resilience.Budget.Budget_exceeded _ -> `Abort)
            in
            match result with
            | `Abort ->
                (* the fault landed in a required pass: aborting IS the
                   contract (no partial design escapes) *)
                acc
            | `Done st ->
                if st.Pom_pipeline.State.hls_c <> clean_design then
                  fail ~code:"POM404" ~loc
                    (Printf.sprintf
                       "degraded run (fault %s at %s, visit %d) produced a \
                        different design"
                       kind site visit)
                    ~note:
                      "analysis-only faults must affect diagnostics, never \
                       the artifact"
                else acc)
      in
      (* later visits too: a fault whose first visit lands in a required
         pass (which must abort) may reach an analysis on a later one *)
      let combos =
        List.concat_map
          (fun site ->
            List.concat_map
              (fun kind -> List.map (fun v -> (site, kind, v)) [ 1; 2; 3 ])
              [ "fail"; "timeout" ])
          analysis_sites
      in
      List.fold_left check_one Pass combos

(* ---------- QoR oracle ---------- *)

(* The QoR model is a predictor, so it cannot be differenced against an
   exact truth — but it can be refuted against operational lower bounds:
   no schedule the backend could emit finishes a group in fewer cycles
   than its distinct serial steps, or than its busiest memory bank can
   move the group's data through two ports.  A model latency below either
   bound is optimistic fiction (POM406), and so is a model that raises on
   a program it is given.  The dependence-chain bound additionally
   assumes the model doesn't re-associate reductions, so a violation there
   is only a precision signal. *)
let check_qor f =
  let loc = [ "refute"; "qor" ] in
  let device = Pom_hls.Device.xc7z020 in
  match
    let prog = Pom_polyir.Prog.of_func f in
    let report = Pom_hls.Report.synthesize ~device prog in
    let report' = Pom_hls.Report.synthesize ~device prog in
    `Built (prog, report, report')
  with
  | exception Pom_polyir.Transform.Transform_error msg ->
      Skip (Printf.sprintf "transform rejected: %s" msg)
  | exception Pom_poly.Ast_build.Schedule_error msg ->
      Skip (Printf.sprintf "lowering rejected: %s" msg)
  | exception Invalid_argument msg ->
      Skip (Printf.sprintf "invalid case: %s" msg)
  | exception ((Failure _ | Not_found | Division_by_zero) as e) ->
      fail ~code:"POM406" ~loc
        (Printf.sprintf "building or synthesizing the program raised %s"
           (Printexc.to_string e))
        ~note:"the QoR model must be a total function of the program"
  | `Built (prog, report, report') ->
      if report <> report' then
        fail ~code:"POM406" ~loc
          "synthesizing the same program twice gave different reports"
          ~note:"the QoR model must be a pure function of the program"
      else (
        match Pom_sim.Cycles.of_prog prog with
        | None -> Skip "iteration domain too large to enumerate"
        | Some bounds ->
            let latency_of g =
              List.assoc_opt g report.Pom_hls.Report.group_latencies
            in
            let check_group acc (b : Pom_sim.Cycles.bounds) =
              match (acc, latency_of b.Pom_sim.Cycles.group) with
              | Fail _, _ | _, None -> acc
              | _, Some cycles ->
                  if cycles < b.Pom_sim.Cycles.serial_bound then
                    fail ~code:"POM406" ~loc
                      (Printf.sprintf
                         "group %d: model latency %d below the serial bound \
                          %d"
                         b.Pom_sim.Cycles.group cycles
                         b.Pom_sim.Cycles.serial_bound)
                      ~note:
                        (Format.asprintf "%a" Pom_sim.Cycles.pp b)
                  else if cycles < b.Pom_sim.Cycles.port_bound then
                    fail ~code:"POM406" ~loc
                      (Printf.sprintf
                         "group %d: model latency %d below the port bound %d"
                         b.Pom_sim.Cycles.group cycles
                         b.Pom_sim.Cycles.port_bound)
                      ~note:
                        (Format.asprintf "%a" Pom_sim.Cycles.pp b)
                  else if cycles < b.Pom_sim.Cycles.chain_bound then
                    Precision
                      (Printf.sprintf
                         "group %d: model latency %d below the dependence \
                          chain bound %d"
                         b.Pom_sim.Cycles.group cycles
                         b.Pom_sim.Cycles.chain_bound)
                  else acc
            in
            List.fold_left check_group Pass bounds)

let check = function
  | Case.Poly p -> check_poly p
  | Case.Semantic f -> check_semantic f
  | Case.Degrade f -> check_degrade f
  | Case.Qor f -> check_qor f
