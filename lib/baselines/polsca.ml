open Pom_dsl
open Pom_pipeline

(* Pipeline the innermost loop of every nest (in the post-tiling order);
   POLSCA adds pragmas on top of the Pluto schedule but no partitioning. *)
let pipeline_pass () =
  Pass.v ~name:"polsca-pipeline"
    (fun (st : State.t) ->
      let func = st.State.func in
      let _, orders =
        Butil.locality_tiling ~exclude:(Butil.fused_computes func) func
      in
      let pipelines =
        List.map
          (fun (c : Compute.t) ->
            let name = c.Compute.name in
            let order =
              match List.assoc_opt name orders with
              | Some o when o <> [] -> o
              | _ -> Compute.iter_names c
            in
            Schedule.pipeline name (List.nth order (List.length order - 1)) 1)
          (Func.computes func)
      in
      { st with State.directives = st.State.directives @ pipelines })

let passes () =
  [
    Butil.locality_tiling_pass ~exclude_fused:true ();
    Passes.structural ();
    pipeline_pass ();
  ]
