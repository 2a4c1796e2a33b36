type side = { domain : Basic_set.t; sched : Sched.t; access : Dep.access }

(* One statement instance's schedule-time vector, with iteration dims
   renamed by [tag]: alternating static constants and affine coordinates. *)
type time_item = C of int | V of Linexpr.t

let rename_expr tag e =
  List.fold_left (fun e d -> Linexpr.rename_dim d (tag ^ d) e) e
    (Linexpr.dims e)

let time_vector tag side =
  List.map
    (function
      | Sched.Const c -> C c
      | Sched.Dim d -> V (Linexpr.var (tag ^ d)))
    (Sched.items side.sched)

(* pad the shorter vector with trailing zero constants so positions align *)
let align a b =
  let la = List.length a and lb = List.length b in
  let pad v n = v @ List.init n (fun _ -> C 0) in
  if la < lb then (pad a (lb - la), b)
  else if lb < la then (a, pad b (la - lb))
  else (a, b)

let src_tag = "s$"

let snk_tag = "t$"

let base_constraints ~source ~sink =
  let dom tag side =
    List.map
      (fun c ->
        let e = rename_expr tag (Constr.expr c) in
        match c with Constr.Eq _ -> Constr.Eq e | Constr.Ge _ -> Constr.Ge e)
      (Basic_set.constraints side.domain)
  in
  if source.access.Dep.array <> sink.access.Dep.array then None
  else if
    List.length source.access.Dep.indices
    <> List.length sink.access.Dep.indices
  then None
  else
    let same_element =
      List.map2
        (fun i j -> Constr.eq (rename_expr src_tag i) (rename_expr snk_tag j))
        source.access.Dep.indices sink.access.Dep.indices
    in
    Some (dom src_tag source @ dom snk_tag sink @ same_element)

let all_dims ~source ~sink =
  List.map (( ^ ) src_tag) (Basic_set.dims source.domain)
  @ List.map (( ^ ) snk_tag) (Basic_set.dims sink.domain)

(* Branch sets of the lexicographic order first ≺ second between the two
   aligned time vectors: one basic-set constraint list per viable branch
   position from [start] on, each with the equalities of every position
   before it.  [first]/[second] select which side is required earlier. *)
let order_branches ?(start = 0) first_vec second_vec =
  let rec go prefix_eq pos = function
    | [], [] -> []
    | a :: rest_a, b :: rest_b ->
        let strict_here =
          match (a, b) with
          | C x, C y -> if x < y then Some [] else None
          | V x, V y -> Some [ Constr.lt x y ]
          | C x, V y -> Some [ Constr.gt y (Linexpr.const x) ]
          | V x, C y -> Some [ Constr.lt x (Linexpr.const y) ]
        in
        let this_branch =
          match strict_here with
          | Some cs when pos >= start -> [ prefix_eq @ cs ]
          | _ -> []
        in
        let eq_here =
          match (a, b) with
          | C x, C y -> if x = y then Some [] else None
          | V x, V y -> Some [ Constr.eq x y ]
          | C x, V y -> Some [ Constr.eq (Linexpr.const x) y ]
          | V x, C y -> Some [ Constr.eq x (Linexpr.const y) ]
        in
        let rest =
          match eq_here with
          | Some cs -> go (prefix_eq @ cs) (pos + 1) (rest_a, rest_b)
          | None -> []
        in
        this_branch @ rest
    | _ -> assert false
  in
  go [] 0 (first_vec, second_vec)

let conflict_set ~first ~second ~source ~sink =
  match base_constraints ~source ~sink with
  | None -> Iset.empty (all_dims ~source ~sink)
  | Some base ->
      let dims = all_dims ~source ~sink in
      let branches = order_branches first second in
      Iset.of_list dims
        (List.map (fun order -> Basic_set.make dims (base @ order)) branches)

let forward_set ~source ~sink =
  let sv, tv = align (time_vector src_tag source) (time_vector snk_tag sink) in
  conflict_set ~first:sv ~second:tv ~source ~sink

let backward_set ~source ~sink =
  let sv, tv = align (time_vector src_tag source) (time_vector snk_tag sink) in
  conflict_set ~first:tv ~second:sv ~source ~sink

let exists_forward ~source ~sink = not (Iset.is_empty (forward_set ~source ~sink))

let exists_backward ~source ~sink =
  not (Iset.is_empty (backward_set ~source ~sink))

let time_distance ~source ~sink =
  let set = Iset.coalesce (forward_set ~source ~sink) in
  if Iset.disjuncts set = [] then None
  else
    let sv, tv =
      align (time_vector src_tag source) (time_vector snk_tag sink)
    in
    let levels =
      List.filter_map
        (fun (a, b) ->
          match (a, b) with
          | V x, V y -> Some (Linexpr.sub y x)
          | C x, C y -> Some (Linexpr.const (y - x))
          | C x, V y -> Some (Linexpr.sub y (Linexpr.const x))
          | V x, C y -> Some (Linexpr.sub (Linexpr.const y) x))
        (List.combine sv tv)
    in
    Some (List.map (fun diff -> (Iset.min_of diff set, Iset.max_of diff set)) levels)
