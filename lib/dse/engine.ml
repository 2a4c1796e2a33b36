open Pom_pipeline

type outcome = {
  stage1 : Stage1.t;
  result : Stage2.result;
  records : Pass.record list;
}

(* Each stage's output travels inside the shared compile state: Stage 1's
   from the stage1-transform pass to the stage2-search pass, and both to
   {!run}, so the handoff works however the caller assembles or reorders
   the pipeline — no hidden mutable coupling between the pass closures. *)
type State.ext += Stage1_output of Stage1.t | Stage2_output of Stage2.result

let passes ?bank_cap () =
  [
    (* dependence-aware code transformation (DSE stage 1) *)
    Pass.v ~required:true ~name:"stage1-transform"
      (fun (st : State.t) ->
        let wall0 = Unix.gettimeofday () in
        let s1 = Stage1.run st.State.func in
        {
          (State.add_ext (Stage1_output s1) st) with
          State.directives = st.State.directives @ s1.Stage1.directives;
          dse_time_s = st.State.dse_time_s +. (Unix.gettimeofday () -. wall0);
        });
    (* bottleneck-oriented optimization (DSE stage 2) *)
    Pass.v ~required:true ~name:"stage2-search"
      (fun (st : State.t) ->
        let wall0 = Unix.gettimeofday () in
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
            ~composition:st.State.composition ?bank_cap st.State.func s1
        in
        {
          (State.add_ext (Stage2_output r) st) with
          State.prog = Some r.Stage2.prog;
          report = Some r.Stage2.report;
          directives = r.Stage2.directives;
          tile_vectors = r.Stage2.tile_vectors;
          evaluations = r.Stage2.evaluations;
          trace = st.State.trace @ r.Stage2.trace;
          dse_time_s = st.State.dse_time_s +. (Unix.gettimeofday () -. wall0);
        });
  ]

let run ?(device = Pom_hls.Device.xc7z020) ?bank_cap ?jobs:(_ : int option)
    func =
  let st, records =
    Pass.run (passes ?bank_cap ()) (State.init ~device func)
  in
  let output f = Option.get (State.find_ext f st) in
  {
    stage1 = output (function Stage1_output s1 -> Some s1 | _ -> None);
    result = output (function Stage2_output r -> Some r | _ -> None);
    records;
  }
