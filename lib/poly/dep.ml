type access = { array : string; indices : Linexpr.t list }

let access array indices = { array; indices }

type direction = Lt | Eq | Gt | Star

type entry = { dmin : int option; dmax : int option }

type level_dep = { level : int; distance : entry list }

type t = { carried : level_dep list; direction : direction list }

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

(* The levels whose conflict polyhedron is non-empty, in order, each mapped
   by [found level conflict].  The polyhedron is proven non-empty once, here;
   [found] reads distances off it without re-testing. *)
let carried_levels ~domain ~source ~sink ~found ~unknown =
  if source.array <> sink.array then []
  else if List.length source.indices <> List.length sink.indices then
    invalid_arg "Dep: access rank mismatch"
  else
    (* each level's conflict polyhedron is independent of the others, so the
       emptiness tests and distance extractions fan out across domains
       (sequential under --jobs 1 or when already inside a pool task) *)
    Pom_par.Par.filter_map
      (fun level ->
        let conflict = conflict_at_level ~domain ~source ~sink level in
        try
          if Feasible.is_empty conflict then None
          else Some (found level conflict)
        with Pom_resilience.Budget.Budget_exceeded _ as e ->
          (* Degradation policy: a dependence test that ran out of budget
             must err conservative — assume the dependence exists, with
             unknown ([None]/[None] -> [Star]) distances at this level.
             Every transform that would need the distance is then rejected
             as unsafe, which loses performance but never correctness. *)
          if Pom_resilience.Policy.degrading () then Some (unknown level)
          else raise e)
      (List.init (Basic_set.n_dims domain) (fun k -> k + 1))

let carried_distances ~domain ~source ~sink =
  let ds = Basic_set.dims domain in
  carried_levels ~domain ~source ~sink
    ~found:(fun level conflict ->
      let d = List.nth ds (level - 1) in
      (level, fst (Feasible.range_nonempty (diff d) conflict)))
    ~unknown:(fun level -> (level, None))

let analyze ~domain ~source ~sink =
  let ds = Basic_set.dims domain in
  let carried =
    carried_levels ~domain ~source ~sink
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
  if carried = [] then None
  else
    let direction =
      List.mapi
        (fun k _ ->
          (* summarize across carrying levels *)
          let mins =
            List.filter_map (fun ld -> (List.nth ld.distance k).dmin) carried
          and maxs =
            List.filter_map (fun ld -> (List.nth ld.distance k).dmax) carried
          in
          match (mins, maxs) with
          | [], _ | _, [] -> Star
          | _ ->
              let dmin = List.fold_left min max_int mins
              and dmax = List.fold_left max min_int maxs in
              if List.length mins < List.length carried then Star
              else if dmin >= 1 then Lt
              else if dmax <= -1 then Gt
              else if dmin = 0 && dmax = 0 then Eq
              else Star)
        ds
    in
    Some { carried; direction }

let outermost_level t =
  match t.carried with
  | { level; _ } :: _ -> level
  | [] -> invalid_arg "Dep.outermost_level: empty dependence"

let innermost_level t =
  match List.rev t.carried with
  | { level; _ } :: _ -> level
  | [] -> invalid_arg "Dep.innermost_level: empty dependence"

let min_distance_at t level =
  List.find_map
    (fun ld ->
      if ld.level = level then (List.nth ld.distance (level - 1)).dmin
      else None)
    t.carried

let constant_distance t =
  match t.carried with
  | [ ld ] ->
      let entries =
        List.map
          (fun e ->
            match (e.dmin, e.dmax) with
            | Some a, Some b when a = b -> Some a
            | _ -> None)
          ld.distance
      in
      if List.for_all Option.is_some entries then
        Some (List.map Option.get entries)
      else None
  | _ -> None

let min_distance_vector t =
  match t.carried with
  | [] -> []
  | ld :: _ -> List.map (fun e -> e.dmin) ld.distance

let pp_direction ppf = function
  | Lt -> Format.pp_print_string ppf "<"
  | Eq -> Format.pp_print_string ppf "="
  | Gt -> Format.pp_print_string ppf ">"
  | Star -> Format.pp_print_string ppf "*"

let pp ppf t =
  Format.fprintf ppf "direction (%a), carried at levels [%s]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_direction)
    t.direction
    (String.concat ", "
       (List.map (fun ld -> string_of_int ld.level) t.carried))
