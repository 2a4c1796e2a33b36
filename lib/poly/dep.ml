type access = { array : string; indices : Linexpr.t list }

let access array indices = { array; indices }

type entry = { dmin : int option; dmax : int option }

type level_dep = { level : int; distance : entry list }

type t = { carried : level_dep list }

let src_dim d = "s$" ^ d

let snk_dim d = "t$" ^ d

(* The conflict set at [level]: src and snk in the domain, same array
   element, equal at outer levels, snk strictly after src at [level]. *)
let conflict_at_level ~domain ~source ~sink level =
  let ds = Basic_set.dims domain in
  let n = List.length ds in
  assert (1 <= level && level <= n);
  let all = List.map src_dim ds @ List.map snk_dim ds in
  let rename tag e =
    List.fold_left (fun e d -> Linexpr.rename_dim d (tag d) e) e
      (Linexpr.dims e)
  in
  let domain_constrs tag =
    List.map
      (fun c ->
        match c with
        | Constr.Eq e -> Constr.Eq (rename tag e)
        | Constr.Ge e -> Constr.Ge (rename tag e))
      (Basic_set.constraints domain)
  in
  let same_element =
    List.map2
      (fun i j -> Constr.eq (rename src_dim i) (rename snk_dim j))
      source.indices sink.indices
  in
  let order =
    List.concat
      (List.mapi
         (fun k d ->
           let s = Linexpr.var (src_dim d) and t = Linexpr.var (snk_dim d) in
           if k + 1 < level then [ Constr.eq s t ]
           else if k + 1 = level then [ Constr.lt s t ]
           else [])
         ds)
  in
  Basic_set.make all
    (domain_constrs src_dim @ domain_constrs snk_dim @ same_element @ order)

(* [sink_d - source_d]: the distance along dimension [d]. *)
let diff d = Linexpr.sub (Linexpr.var (snk_dim d)) (Linexpr.var (src_dim d))

(* The levels among [levels] (ascending) whose conflict polyhedron is
   non-empty, in order, each mapped by [found level conflict].  The
   polyhedron is proven non-empty once, here; [found] reads distances off it
   without re-testing. *)
let carried_levels ~levels ~domain ~source ~sink ~found ~unknown =
  if source.array <> sink.array then []
  else if List.length source.indices <> List.length sink.indices then
    invalid_arg "Dep: access rank mismatch"
  else
    List.filter_map
      (fun level ->
        let conflict = conflict_at_level ~domain ~source ~sink level in
        try
          if Feasible.is_empty conflict then None
          else Some (found level conflict)
        with Pom_resilience.Budget.Budget_exceeded _ as e ->
          (* Degradation policy: a dependence test that ran out of budget
             must err conservative — assume the dependence exists, with
             unknown ([None]/[None]) distances at this level.
             Every transform that would need the distance is then rejected
             as unsafe, which loses performance but never correctness. *)
          if Pom_resilience.Policy.degrading () then Some (unknown level)
          else raise e)
      levels

let all_levels domain = List.init (Basic_set.n_dims domain) (fun k -> k + 1)

let carried_distances ?levels ~domain ~source ~sink () =
  let ds = Basic_set.dims domain in
  let levels = match levels with Some ls -> ls | None -> all_levels domain in
  carried_levels ~levels ~domain ~source ~sink
    ~found:(fun level conflict ->
      let d = List.nth ds (level - 1) in
      (level, fst (Feasible.range_nonempty (diff d) conflict)))
    ~unknown:(fun level -> (level, None))

let analyze ~domain ~source ~sink =
  let ds = Basic_set.dims domain in
  let carried =
    carried_levels ~levels:(all_levels domain) ~domain ~source ~sink
      ~found:(fun level conflict ->
        {
          level;
          distance =
            List.map
              (fun d ->
                let dmin, dmax = Feasible.range_nonempty (diff d) conflict in
                { dmin; dmax })
              ds;
        })
      ~unknown:(fun level ->
        {
          level;
          distance = List.map (fun _ -> { dmin = None; dmax = None }) ds;
        })
  in
  if carried = [] then None else Some { carried }
