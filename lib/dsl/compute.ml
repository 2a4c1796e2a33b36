open Pom_poly

type t = {
  name : string;
  iters : Var.t list;
  where : Expr.cond list;
  body : Expr.t;
  dest : Placeholder.t * Expr.index list;
}

let iter_names t = List.map (fun (v : Var.t) -> v.name) t.iters

let make name ~iters ?(where = []) ~body ~dest () =
  let t = { name; iters; where; body; dest } in
  let dest_p, dest_ix = dest in
  if List.length dest_ix <> Placeholder.rank dest_p then
    invalid_arg
      (Printf.sprintf "Compute.make %s: destination rank mismatch" name);
  let names = iter_names t in
  let check_known used =
    List.iter
      (fun d ->
        if not (List.mem d names) then
          invalid_arg
            (Printf.sprintf "Compute.make %s: unknown iterator %s" name d))
      used
  in
  check_known (Expr.free_iters body);
  check_known
    (List.concat_map
       (fun i -> Linexpr.dims (Expr.index_to_linexpr i))
       dest_ix);
  check_known
    (List.concat_map
       (fun c -> Constr.dims (Expr.cond_to_constr c))
       where);
  t

let domain t =
  Basic_set.make (iter_names t)
    (List.concat_map Var.constraints t.iters
    @ List.map Expr.cond_to_constr t.where)

let write_access t =
  let p, ixs = t.dest in
  Dep.access p.Placeholder.name (List.map Expr.index_to_linexpr ixs)

let read_accesses t =
  List.map
    (fun ((p : Placeholder.t), ixs) ->
      Dep.access p.name (List.map Expr.index_to_linexpr ixs))
    (Expr.loads t.body)

let arrays_read t =
  List.sort_uniq String.compare
    (List.map (fun ((p : Placeholder.t), _) -> p.name) (Expr.loads t.body))

let array_written t = (fst t.dest).Placeholder.name

let placeholders t =
  let all = fst t.dest :: List.map fst (Expr.loads t.body) in
  List.sort_uniq
    (fun (a : Placeholder.t) b -> String.compare a.name b.name)
    all

let reduction_dims t =
  let dest_dims =
    List.concat_map
      (fun i -> Linexpr.dims (Expr.index_to_linexpr i))
      (snd t.dest)
  in
  List.filter (fun d -> not (List.mem d dest_dims)) (iter_names t)

let is_reduction t =
  reduction_dims t <> []
  || List.exists
       (fun ((p : Placeholder.t), _) -> p.name = array_written t)
       (Expr.loads t.body)

let trip_count t =
  let box =
    List.fold_left (fun acc v -> Count.mul acc (Var.extent v)) 1 t.iters
  in
  if t.where = [] then box
  else if box <= 100_000 then Feasible.count (domain t)
  else
    (* magnitude estimate for the QoR model: each affine half-space cut
       roughly halves the box *)
    max 1 (box lsr List.length t.where)

let pp ppf t =
  let p, ixs = t.dest in
  Format.fprintf ppf "%s: {%s} %s(%a) = %a" t.name
    (String.concat ", " (iter_names t))
    p.Placeholder.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Expr.pp_index)
    ixs Expr.pp t.body
