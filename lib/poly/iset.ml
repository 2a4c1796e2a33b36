type t = { dims : string list; disjuncts : Basic_set.t list }

let empty dims = { dims; disjuncts = [] }

let of_basic b = { dims = Basic_set.dims b; disjuncts = [ b ] }

let check_space t b =
  if Basic_set.dims b <> t.dims then
    invalid_arg "Iset: dimension tuples differ"

let of_list dims bs =
  let t = { dims; disjuncts = bs } in
  List.iter (check_space t) bs;
  t

let dims t = t.dims

let disjuncts t = t.disjuncts

let union a b =
  if a.dims <> b.dims then invalid_arg "Iset.union: dimension tuples differ";
  { a with disjuncts = a.disjuncts @ b.disjuncts }

let intersect a b =
  if a.dims <> b.dims then
    invalid_arg "Iset.intersect: dimension tuples differ";
  {
    a with
    disjuncts =
      List.concat_map
        (fun x -> List.map (Basic_set.intersect x) b.disjuncts)
        a.disjuncts;
  }

let add_constraint c t =
  { t with disjuncts = List.map (Basic_set.add_constraint c) t.disjuncts }

let project_onto keep t =
  match t.disjuncts with
  | [] -> { t with dims = List.filter (fun d -> List.mem d keep) t.dims }
  | bs ->
      let projected = List.map (Basic_set.project_onto keep) bs in
      { dims = Basic_set.dims (List.hd projected); disjuncts = projected }

let mem env t = List.exists (Basic_set.mem env) t.disjuncts

let is_empty t = List.for_all Feasible.is_empty t.disjuncts

let coalesce t =
  { t with disjuncts = List.filter (fun b -> not (Feasible.is_empty b)) t.disjuncts }

let fold_opt f xs =
  List.fold_left
    (fun acc x ->
      match (acc, x) with
      | None, v -> v
      | v, None -> v
      | Some a, Some b -> Some (f a b))
    None xs

let min_of e t =
  fold_opt min (List.map (Feasible.min_of e) t.disjuncts)

let max_of e t =
  fold_opt max (List.map (Feasible.max_of e) t.disjuncts)

let pp ppf t =
  match t.disjuncts with
  | [] -> Format.fprintf ppf "{ [%s] : false }" (String.concat ", " t.dims)
  | bs ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf " union ")
        Basic_set.pp ppf bs
