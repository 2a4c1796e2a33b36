open Pom_dsl

let prog_exn (st : State.t) what =
  match st.State.prog with
  | Some p -> p
  | None -> invalid_arg (what ^ ": no polyhedral program in the state")

let loc_of (err : Pom_resilience.Error.t) =
  (match err.Pom_resilience.Error.pass with Some p -> [ p ] | None -> [])
  @ err.Pom_resilience.Error.context

(* The [degrade] fallback of an analysis that only reports: the failure
   becomes a warning diagnostic (the compile continued without it) plus a
   trace line, carrying the typed error's code and context. *)
let record_failure (st : State.t) (err : Pom_resilience.Error.t) =
  let d =
    Pom_analysis.Diagnostic.warning ~code:err.Pom_resilience.Error.code
      ~loc:(loc_of err) ~note:"pass skipped under --on-error degrade"
      err.Pom_resilience.Error.message
  in
  {
    st with
    State.diags = st.State.diags @ [ d ];
    trace =
      st.State.trace
      @ [
          Printf.sprintf "degraded: %s (%s)"
            (Option.value ~default:"?" err.Pom_resilience.Error.pass)
            err.Pom_resilience.Error.code;
        ];
  }

(* The [degrade] fallback of the legality check: an unproven schedule is
   an illegal schedule, whether the proof ran out of budget (POM301) or
   failed (POM300).  The rejection is an error diagnostic with the
   failure's own code, so the compile exits 2. *)
let reject (st : State.t) (err : Pom_resilience.Error.t) =
  let how =
    if err.Pom_resilience.Error.code = "POM301" then "timed out" else "failed"
  in
  let d =
    Pom_analysis.Diagnostic.error ~code:err.Pom_resilience.Error.code
      ~loc:(loc_of err)
      (Printf.sprintf "legality proof %s (%s): the schedule is rejected" how
         err.Pom_resilience.Error.message)
  in
  {
    st with
    State.diags = st.State.diags @ [ d ];
    trace = st.State.trace @ [ "legality: proof " ^ how ^ " -> rejected" ];
  }

let structural () =
  Pass.v ~name:"structural-directives"
    (fun (st : State.t) ->
      {
        st with
        State.directives =
          st.State.directives @ List.map fst (Func.structure st.State.func);
      })

let user_schedule () =
  Pass.v ~name:"user-schedule"
    (fun (st : State.t) ->
      {
        st with
        State.directives = st.State.directives @ Func.directives st.State.func;
      })

let schedule_apply () =
  Pass.v ~name:"schedule-apply"
    (fun (st : State.t) ->
      {
        st with
        State.prog =
          Some
            (Pom_polyir.Prog.apply_all
               (Pom_polyir.Prog.of_func_unscheduled st.State.func)
               st.State.directives);
      })

let legality_check () =
  Pass.v ~degrade:reject ~name:"legality-check"
    (fun (st : State.t) ->
      match st.State.prog with
      | None ->
          {
            st with
            State.trace = st.State.trace @ [ "legality: no polyhedral IR yet" ];
          }
      | Some prog ->
          let vs =
            Pom_polyir.Legality.violations
              ~original:(Pom_polyir.Prog.reference st.State.func)
              ~transformed:prog
          in
          let verdict =
            match vs with
            | [] -> "legal"
            | vs -> Printf.sprintf "%d reversed dependences" (List.length vs)
          in
          {
            st with
            State.legality_violations = List.length vs;
            trace = st.State.trace @ [ "legality: " ^ verdict ];
          })

let lint_pragmas () =
  Pass.v ~degrade:record_failure ~name:"lint-pragmas"
    (fun (st : State.t) ->
      let ds = Pom_analysis.Lint.lint (prog_exn st "lint-pragmas") in
      {
        st with
        State.diags = st.State.diags @ ds;
        trace = st.State.trace @ [ "lint: " ^ Pom_analysis.Diagnostic.summary ds ];
      })

let verify_ir () =
  Pass.v ~degrade:record_failure ~name:"verify-ir"
    (fun (st : State.t) ->
      let prog = prog_exn st "verify-ir" in
      let ds = Pom_analysis.Verify_ir.verify ?affine:st.State.affine prog in
      {
        st with
        State.diags = st.State.diags @ ds;
        trace =
          st.State.trace @ [ "verify-ir: " ^ Pom_analysis.Diagnostic.summary ds ];
      })

let synthesize () =
  Pass.v ~name:"hls-synthesize"
    (fun (st : State.t) ->
      match st.State.report with
      | Some _ ->
          (* a search already priced the program it settled on *)
          st
      | None ->
          let report =
            Pom_hls.Report.synthesize ~composition:st.State.composition
              ~latency_mode:st.State.latency_mode ~device:st.State.device
              (prog_exn st "hls-synthesize")
          in
          { st with State.report = Some report })

let affine_lower () =
  Pass.v ~name:"affine-lower"
    (fun (st : State.t) ->
      {
        st with
        State.affine =
          Some (Pom_affine.Lower.lower (prog_exn st "affine-lower"));
      })

let affine_simplify () =
  Pass.v ~name:"affine-simplify"
    (fun (st : State.t) ->
      match st.State.affine with
      | Some f -> { st with State.affine = Some (Pom_affine.Passes.simplify f) }
      | None -> invalid_arg "affine-simplify: no affine IR in the state")

let emit_hls_c () =
  Pass.v ~name:"emit-hls-c"
    (fun (st : State.t) ->
      match st.State.affine with
      | Some f -> { st with State.hls_c = Some (Pom_emit.Emit.hls_c f) }
      | None -> invalid_arg "emit-hls-c: no affine IR in the state")

let tail () =
  [
    synthesize ();
    affine_lower ();
    affine_simplify ();
    verify_ir ();
    emit_hls_c ();
  ]
