open Pom_dsl

let locality_tiling ?(tile = 32) ?(exclude = []) func =
  let per_compute =
    List.map
      (fun (c : Compute.t) ->
        let name = c.Compute.name in
        let tiled =
          if List.mem name exclude then []
          else
            List.filter
              (fun (v : Var.t) -> Var.extent v >= 2 * tile)
              c.Compute.iters
        in
        let splits =
          List.map
            (fun (v : Var.t) ->
              Schedule.split name v.Var.name tile (v.Var.name ^ "_T")
                (v.Var.name ^ "_t"))
            tiled
        in
        (* order after splits: each tiled dim becomes (d_T, d_t) in place *)
        let after_splits =
          List.concat_map
            (fun (v : Var.t) ->
              if List.memq v tiled then [ v.Var.name ^ "_T"; v.Var.name ^ "_t" ]
              else [ v.Var.name ])
            c.Compute.iters
        in
        let desired =
          List.filter_map
            (fun (v : Var.t) ->
              if List.memq v tiled then Some (v.Var.name ^ "_T") else None)
            c.Compute.iters
          @ List.map
              (fun (v : Var.t) ->
                if List.memq v tiled then v.Var.name ^ "_t" else v.Var.name)
              c.Compute.iters
        in
        ( splits @ Pom_dse.Stage1.realize_order name after_splits desired,
          (name, desired) ))
      (Func.computes func)
  in
  (List.concat_map fst per_compute, List.map snd per_compute)

let fused_computes func =
  List.sort_uniq String.compare
    (List.concat_map (fun (_, (a, b)) -> [ a; b ]) (Func.structure func))

let locality_tiling_pass ?tile ~exclude_fused () =
  Pom_pipeline.Pass.v ~name:"pluto-locality-tiling"
    (fun (st : Pom_pipeline.State.t) ->
      let func = st.Pom_pipeline.State.func in
      let exclude = if exclude_fused then fused_computes func else [] in
      let tiling, _ = locality_tiling ?tile ~exclude func in
      {
        st with
        Pom_pipeline.State.directives =
          st.Pom_pipeline.State.directives @ tiling;
      })
