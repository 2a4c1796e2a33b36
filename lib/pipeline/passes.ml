open Pom_dsl

let structural_directives = State.structural_directives

let prog_exn (st : State.t) what =
  match st.State.prog with
  | Some p -> p
  | None -> invalid_arg (what ^ ": no polyhedral program in the state")

(* The [diag] hook for {!Pass.guarded} over {!State.t}: a degraded pass
   failure becomes a warning diagnostic (the compile continued) plus a trace
   line, carrying the typed error's code and context. *)
let record_failure (st : State.t) (err : Pom_resilience.Error.t) =
  let loc =
    (match err.Pom_resilience.Error.pass with Some p -> [ p ] | None -> [])
    @ err.Pom_resilience.Error.context
  in
  let d =
    Pom_analysis.Diagnostic.warning ~code:err.Pom_resilience.Error.code ~loc
      ~note:"pass skipped under --on-error degrade"
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

let guard ?required p = Pass.guarded ?required ~diag:record_failure p

let structural () =
  Pass.v ~name:"structural-directives"
    ~descr:"append the specification's after/fuse structure"
    (fun (st : State.t) ->
      {
        st with
        State.directives =
          st.State.directives @ structural_directives st.State.func;
      })

let user_schedule () =
  Pass.v ~name:"user-schedule"
    ~descr:"append the function's own scheduling primitives"
    (fun (st : State.t) ->
      {
        st with
        State.directives = st.State.directives @ Func.directives st.State.func;
      })

let schedule_apply () =
  Pass.v ~name:"schedule-apply"
    ~descr:"apply the accumulated directives to the polyhedral IR"
    (fun (st : State.t) ->
      {
        st with
        State.prog =
          Some
            (Pom_polyir.Prog.apply_all
               (Pom_polyir.Prog.of_func_unscheduled st.State.func)
               st.State.directives);
      })

let legality_timeout_trace = "legality: timed out -> conservatively rejected"

let legality_check () =
  Pass.v ~name:"legality-check"
    ~descr:"prove the schedule preserves every dependence of the spec"
    (fun (st : State.t) ->
      match st.State.prog with
      | None ->
          {
            st with
            State.trace = st.State.trace @ [ "legality: no polyhedral IR yet" ];
          }
      | Some prog -> (
          match
            Pom_polyir.Legality.violations ~original:(State.reference st)
              ~transformed:prog
          with
          | vs ->
              let verdict =
                match vs with
                | [] -> "legal"
                | vs ->
                    Printf.sprintf "%d reversed dependences" (List.length vs)
              in
              {
                st with
                State.legality_violations = List.length vs;
                trace = st.State.trace @ [ "legality: " ^ verdict ];
              }
          | exception (Pom_resilience.Budget.Budget_exceeded { site; reason }
                       as e) ->
              (* Degradation policy: an unproven schedule is an illegal
                 schedule.  Under [degrade] the timeout conservatively
                 rejects the transform (counted as a violation, POM302
                 diagnostic); under [abort] it propagates to the guard. *)
              if not (Pom_resilience.Policy.degrading ()) then raise e
              else
                let d =
                  Pom_analysis.Diagnostic.warning ~code:"POM302"
                    ~loc:[ "legality-check"; site ]
                    ~note:
                      "raise --deadline or simplify the schedule to complete \
                       the proof"
                    (Printf.sprintf
                       "legality proof timed out (%s); schedule conservatively \
                        rejected"
                       reason)
                in
                {
                  st with
                  State.legality_violations = 1;
                  diags = st.State.diags @ [ d ];
                  trace = st.State.trace @ [ legality_timeout_trace ];
                }))

let lint_pragmas () =
  Pass.v ~name:"lint-pragmas"
    ~descr:"dependence-aware lint of the requested HLS directives"
    (fun (st : State.t) ->
      let ds = Pom_analysis.Lint.lint (prog_exn st "lint-pragmas") in
      {
        st with
        State.diags = st.State.diags @ ds;
        trace = st.State.trace @ [ "lint: " ^ Pom_analysis.Diagnostic.summary ds ];
      })

let verify_ir () =
  Pass.v ~name:"verify-ir"
    ~descr:"verify the affine IR and prove every access stays in bounds"
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
    ~descr:"virtual HLS synthesis of the current design point"
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
    ~descr:"lower the polyhedral AST to the annotated affine dialect"
    (fun (st : State.t) ->
      {
        st with
        State.affine =
          Some (Pom_affine.Lower.lower (prog_exn st "affine-lower"));
      })

let affine_simplify () =
  Pass.v ~name:"affine-simplify"
    ~descr:"merge, hoist, and elide guards on the affine level"
    (fun (st : State.t) ->
      match st.State.affine with
      | Some f -> { st with State.affine = Some (Pom_affine.Passes.simplify f) }
      | None -> invalid_arg "affine-simplify: no affine IR in the state")

let emit_hls_c () =
  Pass.v ~name:"emit-hls-c"
    ~descr:"emit HLS C with pragmas from the simplified affine program"
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
