open Pom_dsl
open Pom_pipeline

type result = {
  directives : Schedule.t list;
  prog : Pom_polyir.Prog.t;
  report : Pom_hls.Report.t;
}

(* The expert's hand schedule (Table IV), appended as a single pass. *)
let schedule_pass () =
  Pass.v ~name:"manual-bicg-schedule"
    (fun (st : State.t) ->
      let u = 24 in
      let directives =
        [
          (* distribute: drop the fused nest, keep the two loops sequential *)
          (* interchange the q statement so its reduction moves outward *)
          Schedule.interchange "s_q" "i" "j";
          (* each loop: strip-mine the parallel dimension, pipeline, unroll *)
          Schedule.split "s_s" "j" u "j_o" "j_i";
          Schedule.pipeline "s_s" "j_o" 1;
          Schedule.unroll "s_s" "j_i" u;
          Schedule.split "s_q" "i" u "i_o" "i_i";
          Schedule.pipeline "s_q" "i_o" 1;
          Schedule.unroll "s_q" "i_i" u;
          (* the expert under-partitions the shared matrix (banks are costly),
             accepting II = 2 on each loop *)
          Schedule.partition "A" [ 8; 8 ] Schedule.Cyclic;
          Schedule.partition "s" [ 8 ] Schedule.Cyclic;
          Schedule.partition "q" [ 8 ] Schedule.Cyclic;
        ]
      in
      { st with State.directives = st.State.directives @ directives })

let bicg ?(device = Pom_hls.Device.xc7z020) n =
  let func = Pom_workloads.Polybench.bicg n in
  let st, _records =
    Pass.run
      [ schedule_pass (); Passes.schedule_apply (); Passes.synthesize () ]
      (State.init ~device func)
  in
  {
    directives = st.State.directives;
    prog = Option.get st.State.prog;
    report = Option.get st.State.report;
  }
