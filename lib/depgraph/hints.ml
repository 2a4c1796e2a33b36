type suggestion =
  | Keep
  | Reorder of string list
  | Skew_hint of { d1 : string; d2 : string; factor : int; order : string list }
  | Tight of int

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) xs in
          List.map (fun p -> x :: p) (permutations rest))
        xs

let original_order (fine : Finegrain.t) =
  Pom_dsl.Compute.iter_names fine.compute

(* Interval arithmetic on optional bounds for the skewed component
   f*d1 + d2 (f > 0). *)
let skew_box f d1 d2 box =
  let lo1, hi1 = List.assoc d1 box and lo2, hi2 = List.assoc d2 box in
  let add a b = match (a, b) with Some x, Some y -> Some (x + y) | _ -> None in
  let scale k = Option.map (fun x -> k * x) in
  let lo' = add (scale f lo1) lo2 and hi' = add (scale f hi1) hi2 in
  List.map (fun (d, r) -> if d = d2 then (d, (lo', hi')) else (d, r)) box

let skewed_fine (fine : Finegrain.t) f d1 d2 =
  { fine with Finegrain.self_deps = List.map (skew_box f d1 d2) fine.self_deps }

let suggest (fine : Finegrain.t) =
  let dims = original_order fine in
  if Finegrain.innermost_free fine ~order:dims then Keep
  else
    (* the original order itself first, then permutations in a stable
       order *)
    let candidates = permutations dims in
    match
      List.find_opt
        (fun order ->
          Finegrain.legal_order fine ~order
          && Finegrain.innermost_free fine ~order)
        candidates
    with
    | Some order -> Reorder order
    | None -> (
        (* try skewing a pair of dimensions, smallest factor first *)
        let pairs =
          List.concat_map
            (fun d1 ->
              List.filter_map
                (fun d2 -> if d1 <> d2 then Some (d1, d2) else None)
                dims)
            dims
        in
        let attempts =
          List.concat_map
            (fun factor -> List.map (fun (d1, d2) -> (factor, d1, d2)) pairs)
            [ 1; 2; 3; 4 ]
        in
        let found =
          List.find_map
            (fun (factor, d1, d2) ->
              let fine' = skewed_fine fine factor d1 d2 in
              List.find_map
                (fun order ->
                  if
                    Finegrain.legal_order fine' ~order
                    && Finegrain.innermost_free fine' ~order
                  then Some (Skew_hint { d1; d2; factor; order })
                  else None)
                candidates)
            attempts
        in
        match found with
        | Some s -> s
        | None ->
            let innermost = List.nth dims (List.length dims - 1) in
            let dist =
              match Finegrain.carried_distance_at fine ~order:dims innermost with
              | Some d -> d
              | None -> 1
            in
            Tight dist)

let pp ppf = function
  | Keep -> Format.pp_print_string ppf "keep current order"
  | Reorder order ->
      Format.fprintf ppf "interchange to (%s)" (String.concat ", " order)
  | Skew_hint { d1; d2; factor; order } ->
      Format.fprintf ppf "skew %s by %d*%s, then order (%s)" d2 factor d1
        (String.concat ", " order)
  | Tight d ->
      Format.fprintf ppf "tight loop-carried dependence (min distance %d)" d
