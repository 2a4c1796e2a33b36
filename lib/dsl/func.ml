type t = {
  name : string;
  mutable computes : Compute.t list;  (* reverse program order *)
  mutable directives : Schedule.t list;  (* reverse application order *)
}

let create name = { name; computes = []; directives = [] }

let name t = t.name

let computes t = List.rev t.computes

let directives t = List.rev t.directives

let find_compute t cname =
  match List.find_opt (fun (c : Compute.t) -> c.name = cname) t.computes with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Func %s: no compute %s" t.name cname)

let add_compute t (c : Compute.t) =
  if List.exists (fun (c' : Compute.t) -> c'.name = c.name) t.computes then
    invalid_arg (Printf.sprintf "Func %s: duplicate compute %s" t.name c.name);
  t.computes <- c :: t.computes

let compute t cname ~iters ?where ~body ~dest () =
  let c = Compute.make cname ~iters ?where ~body ~dest () in
  add_compute t c;
  c

let check_ref t cname = ignore (find_compute t cname)

let schedule t d =
  (match d with
  | Schedule.Interchange { compute; _ }
  | Schedule.Split { compute; _ }
  | Schedule.Tile { compute; _ }
  | Schedule.Skew { compute; _ }
  | Schedule.Reverse { compute; _ }
  | Schedule.Pipeline { compute; _ }
  | Schedule.Unroll { compute; _ } ->
      check_ref t compute
  | Schedule.After { compute; anchor; _ } ->
      check_ref t compute;
      check_ref t anchor
  | Schedule.Fuse { c1; c2; _ } ->
      check_ref t c1;
      check_ref t c2
  | Schedule.Partition _ | Schedule.Auto_dse -> ());
  t.directives <- d :: t.directives

let structure t =
  List.filter_map
    (fun d ->
      match (d : Schedule.t) with
      | Schedule.After { compute; anchor; level } when level >= 1 ->
          Some (d, (anchor, compute))
      | Schedule.Fuse { c1; c2; level } when level >= 1 -> Some (d, (c1, c2))
      | _ -> None)
    (directives t)

let placeholders t =
  List.sort_uniq
    (fun (a : Placeholder.t) b -> String.compare a.name b.name)
    (List.concat_map Compute.placeholders t.computes)

let wants_auto_dse t =
  List.exists (function Schedule.Auto_dse -> true | _ -> false) t.directives

let decl_loc t =
  let iters =
    List.sort_uniq String.compare
      (List.concat_map Compute.iter_names t.computes)
  in
  List.length (placeholders t) + List.length iters + List.length t.computes + 1

let loc t = decl_loc t + List.length t.directives

let loc_auto t = decl_loc t + 1

let pp ppf t =
  Format.fprintf ppf "@[<v 2>func %s {@,%a@,%a@]@,}" t.name
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Compute.pp)
    (computes t)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Schedule.pp)
    (directives t)
