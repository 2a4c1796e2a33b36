open Pom_poly
open Pom_dsl

type dep_box = (string * (int option * int option)) list

type t = {
  compute : Compute.t;
  self_deps : dep_box list;
  reduction_dims : string list;
}

let boxes_of_dep dims (dep : Dep.t) =
  List.map
    (fun (ld : Dep.level_dep) ->
      List.map2
        (fun d (e : Dep.entry) -> (d, (e.dmin, e.dmax)))
        dims ld.distance)
    dep.carried

let key compute =
  Dep.key ~domain:(Compute.domain compute)
    ~write:(Compute.write_access compute)
    ~reads:(Compute.read_accesses compute)

let analyze compute =
  let domain = Compute.domain compute in
  let dims = Compute.iter_names compute in
  let write = Compute.write_access compute in
  let self_deps =
    List.concat_map
      (fun read ->
        match Dep.analyze ~domain ~source:write ~sink:read with
        | Some dep -> boxes_of_dep dims dep
        | None -> [])
      (Compute.read_accesses compute)
  in
  { compute; self_deps; reduction_dims = Compute.reduction_dims compute }

(* Scan a distance box in the given loop order.  [`Carried (dim, dist)]:
   first non-zero component is provably positive at [dim] with minimal
   distance [dist].  [`Illegal]: some instance may have a non-positive
   first component (or the sign is unknown). *)
let scan_box ~order box =
  let rec go = function
    | [] -> `Illegal (* all components zero: not a real dependence *)
    | d :: rest -> (
        match List.assoc_opt d box with
        | None -> invalid_arg ("Finegrain: box missing dimension " ^ d)
        | Some (Some lo, _) when lo > 0 -> `Carried (d, lo)
        | Some (Some 0, Some 0) -> go rest
        | Some _ -> `Illegal)
  in
  go order

let legal_order t ~order =
  List.for_all
    (fun box -> match scan_box ~order box with `Carried _ -> true | `Illegal -> false)
    t.self_deps

let innermost_free t ~order =
  match List.rev order with
  | [] -> true
  | innermost :: _ ->
      List.for_all
        (fun box ->
          match scan_box ~order box with
          | `Carried (d, _) -> d <> innermost
          | `Illegal -> false)
        t.self_deps

let carried_distance_at t ~order d =
  List.fold_left
    (fun acc box ->
      match scan_box ~order box with
      | `Carried (d', dist) when d' = d -> (
          match acc with None -> Some dist | Some a -> Some (min a dist))
      | `Carried _ | `Illegal -> acc)
    None t.self_deps

let pp_bound ppf = function
  | Some v -> Format.pp_print_int ppf v
  | None -> Format.pp_print_string ppf "inf"

let pp ppf t =
  Format.fprintf ppf "@[<v 2>%s:@,reduction dims: [%s]@,%a@]"
    t.compute.Compute.name
    (String.concat ", " t.reduction_dims)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf box ->
         Format.fprintf ppf "dep (%s)"
           (String.concat ", "
              (List.map
                 (fun (d, (lo, hi)) ->
                   Format.asprintf "%s:[%a,%a]" d pp_bound lo pp_bound hi)
                 box))))
    t.self_deps
