open Pom_pipeline

type outcome = {
  stage1 : Stage1.t;
  result : Stage2.result;
  dse_time_s : float;
  dse_cpu_s : float;
  records : Pass.record list;
}

(* Stage 1's output travels from the stage1-transform pass to the
   stage2-search pass inside the shared compile state, so the handoff works
   however the caller assembles or reorders the pipeline — no hidden mutable
   coupling between the two pass closures. *)
type State.ext += Stage1_output of Stage1.t

let passes ?par_cap ?bank_cap ?steps ?checkpoint
    ?(on_stage1 = fun _ -> ()) ?(on_result = fun _ -> ()) () =
  [
    Pass.v ~name:"stage1-transform"
      ~descr:"dependence-aware code transformation (DSE stage 1)"
      (fun (st : State.t) ->
        let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
        let s1 = Stage1.run st.State.func in
        on_stage1 s1;
        {
          (State.add_ext (Stage1_output s1) st) with
          State.directives = st.State.directives @ s1.Stage1.directives;
          dse_time_s = st.State.dse_time_s +. (Unix.gettimeofday () -. wall0);
          dse_cpu_s = st.State.dse_cpu_s +. (Sys.time () -. cpu0);
        });
    Pass.v ~name:"stage2-search"
      ~descr:"bottleneck-oriented optimization (DSE stage 2)"
      (fun (st : State.t) ->
        let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
        let s1 =
          match
            State.find_ext
              (function Stage1_output s1 -> Some s1 | _ -> None)
              st
          with
          | Some s1 -> s1
          | None -> invalid_arg "stage2-search: no stage-1 output in the state"
        in
        let r =
          Stage2.run ~device:st.State.device
            ~composition:st.State.composition ?par_cap ?bank_cap ?steps
            ?checkpoint st.State.func s1
        in
        on_result r;
        {
          st with
          State.prog = Some r.Stage2.prog;
          report = Some r.Stage2.report;
          directives = r.Stage2.directives;
          tile_vectors = r.Stage2.tile_vectors;
          trace = st.State.trace @ r.Stage2.trace;
          dse_time_s = st.State.dse_time_s +. (Unix.gettimeofday () -. wall0);
          dse_cpu_s = st.State.dse_cpu_s +. (Sys.time () -. cpu0);
        });
  ]

let run ?(device = Pom_hls.Device.xc7z020) ?composition ?par_cap ?bank_cap
    ?steps ?jobs:(_ : int option) ?checkpoint func =
  (* Sys.time is CPU time; the Table III "DSE time" column is wall clock,
     so measure both and report them separately. *)
  let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
  let stage1 = ref None and result = ref None in
  let pipeline =
    passes ?par_cap ?bank_cap ?steps ?checkpoint
      ~on_stage1:(fun s1 -> stage1 := Some s1)
      ~on_result:(fun r -> result := Some r)
      ()
  in
  let _st, records =
    Pass.run pipeline (State.init ?composition ~device func)
  in
  match (!stage1, !result) with
  | Some stage1, Some result ->
      {
        stage1;
        result;
        dse_time_s = Unix.gettimeofday () -. wall0;
        dse_cpu_s = Sys.time () -. cpu0;
        records;
      }
  | _ -> assert false
