open Pom_poly
open Pom_dsl

exception Transform_error of string

let err fmt = Format.kasprintf (fun s -> raise (Transform_error s)) fmt

let check_dim (s : Stmt_poly.t) d =
  if not (List.mem d (Basic_set.dims s.domain)) then
    err "%s: no dimension %s" (Stmt_poly.name s) d

let check_fresh (s : Stmt_poly.t) d =
  if List.mem d (Basic_set.dims s.domain) then
    err "%s: dimension %s already exists" (Stmt_poly.name s) d

let check_hw_free (s : Stmt_poly.t) d =
  let { Stmt_poly.pipeline; unrolls } = s.hw in
  let mentioned =
    (match pipeline with Some (p, _) -> [ p ] | None -> []) @ List.map fst unrolls
  in
  if List.mem d mentioned then
    err "%s: dimension %s already carries hardware attributes"
      (Stmt_poly.name s) d

let level_of_exn (s : Stmt_poly.t) d =
  match Sched.level_of s.sched d with
  | Some l -> l
  | None -> err "%s: dimension %s not in schedule" (Stmt_poly.name s) d


let interchange (s : Stmt_poly.t) d1 d2 =
  check_dim s d1;
  check_dim s d2;
  let l1 = level_of_exn s d1 and l2 = level_of_exn s d2 in
  { s with sched = Sched.swap_levels s.sched l1 l2 }

let split (s : Stmt_poly.t) dim factor ~outer ~inner =
  check_dim s dim;
  check_fresh s outer;
  check_fresh s inner;
  check_hw_free s dim;
  if factor <= 1 then err "%s: split factor must exceed 1" (Stmt_poly.name s);
  let old_dims = Basic_set.dims s.domain in
  let new_dims =
    List.concat_map (fun d -> if d = dim then [ outer; inner ] else [ d ]) old_dims
  in
  let repl =
    Linexpr.add (Linexpr.term factor outer) (Linexpr.var inner)
  in
  let bindings =
    List.map
      (fun d -> if d = dim then (d, repl) else (d, Linexpr.var d))
      old_dims
  in
  let extra =
    [
      Constr.ge (Linexpr.var inner) (Linexpr.const 0);
      Constr.le (Linexpr.var inner) (Linexpr.const (factor - 1));
    ]
  in
  {
    s with
    domain = Basic_set.change_space ~new_dims ~bindings ~extra s.domain;
    index_map =
      List.map (fun (o, e) -> (o, Linexpr.subst dim repl e)) s.index_map;
    sched =
      Sched.replace_dim s.sched dim
        [ Sched.Dim outer; Sched.Const 0; Sched.Dim inner ];
  }

let tile (s : Stmt_poly.t) d1 d2 f1 f2 ~o1 ~o2 ~i1 ~i2 =
  let l1 = level_of_exn s d1 and l2 = level_of_exn s d2 in
  if l2 <> l1 + 1 then
    err "%s: tile requires adjacent levels (%s at %d, %s at %d)"
      (Stmt_poly.name s) d1 l1 d2 l2;
  let s = split s d1 f1 ~outer:o1 ~inner:i1 in
  let s = split s d2 f2 ~outer:o2 ~inner:i2 in
  interchange s i1 o2

let skew (s : Stmt_poly.t) d1 d2 f1 f2 ~n1 ~n2 =
  check_dim s d1;
  check_dim s d2;
  check_fresh s n1;
  check_fresh s n2;
  check_hw_free s d1;
  check_hw_free s d2;
  if abs f2 <> 1 then err "%s: skew inner factor must be +-1" (Stmt_poly.name s);
  let old_dims = Basic_set.dims s.domain in
  (* (n1, n2) = (d1, f1*d1 + f2*d2), so d1 = n1 and
     d2 = f2*n2 - f2*f1*n1 (using f2 = 1/f2 for f2 = +-1). *)
  let d1_repl = Linexpr.var n1 in
  let d2_repl =
    Linexpr.add (Linexpr.term f2 n2) (Linexpr.term (-f2 * f1) n1)
  in
  let new_dims =
    List.map (fun d -> if d = d1 then n1 else if d = d2 then n2 else d) old_dims
  in
  let bindings =
    List.map
      (fun d ->
        if d = d1 then (d, d1_repl)
        else if d = d2 then (d, d2_repl)
        else (d, Linexpr.var d))
      old_dims
  in
  {
    s with
    domain = Basic_set.change_space ~new_dims ~bindings s.domain;
    index_map =
      List.map
        (fun (o, e) -> (o, Linexpr.subst_all [ (d1, d1_repl); (d2, d2_repl) ] e))
        s.index_map;
    sched = Sched.rename_dim (Sched.rename_dim s.sched d1 n1) d2 n2;
  }

let reverse (s : Stmt_poly.t) dim ~new_dim =
  check_dim s dim;
  check_fresh s new_dim;
  check_hw_free s dim;
  let lb, ub =
    match Basic_set.const_range dim s.Stmt_poly.domain with
    | Some lb, Some ub -> (lb, ub)
    | _ -> err "%s: cannot reverse unbounded dimension %s" (Stmt_poly.name s) dim
  in
  (* dim = (lb + ub) - new_dim keeps the same integer range *)
  let repl = Linexpr.sub (Linexpr.const (lb + ub)) (Linexpr.var new_dim) in
  let old_dims = Basic_set.dims s.Stmt_poly.domain in
  let new_dims = List.map (fun d -> if d = dim then new_dim else d) old_dims in
  let bindings =
    List.map
      (fun d -> if d = dim then (d, repl) else (d, Linexpr.var d))
      old_dims
  in
  {
    s with
    Stmt_poly.domain = Basic_set.change_space ~new_dims ~bindings s.Stmt_poly.domain;
    index_map =
      List.map (fun (o, e) -> (o, Linexpr.subst dim repl e)) s.Stmt_poly.index_map;
    sched = Sched.rename_dim s.Stmt_poly.sched dim new_dim;
  }

let sequence_after (s : Stmt_poly.t) ~anchor ~level =
  let depth = Sched.depth s.sched in
  if level < 0 || level > depth then
    err "%s: sequence level %d out of range" (Stmt_poly.name s) level;
  if level > Sched.depth anchor.Stmt_poly.sched then
    err "%s: anchor %s is shallower than level %d" (Stmt_poly.name s)
      (Stmt_poly.name anchor) level;
  let sched = ref s.sched in
  for k = 0 to level - 1 do
    sched := Sched.set_const !sched k (Sched.const_at anchor.Stmt_poly.sched k)
  done;
  sched :=
    Sched.set_const !sched level (Sched.const_at anchor.Stmt_poly.sched level + 1);
  for k = level + 1 to depth do
    sched := Sched.set_const !sched k 0
  done;
  { s with sched = !sched }

let pipeline (s : Stmt_poly.t) dim ii =
  ignore (level_of_exn s dim);
  if ii < 1 then err "%s: pipeline II must be positive" (Stmt_poly.name s);
  { s with hw = { s.hw with Stmt_poly.pipeline = Some (dim, ii) } }

let unroll (s : Stmt_poly.t) dim factor =
  ignore (level_of_exn s dim);
  if factor < 1 then err "%s: unroll factor must be positive" (Stmt_poly.name s);
  {
    s with
    hw =
      {
        s.hw with
        Stmt_poly.unrolls = (dim, factor) :: List.remove_assoc dim s.hw.unrolls;
      };
  }

let on_stmt stmts cname f =
  let found = ref false in
  let stmts =
    List.map
      (fun (s : Stmt_poly.t) ->
        if Stmt_poly.name s = cname then begin
          found := true;
          f s
        end
        else s)
      stmts
  in
  if not !found then err "no statement named %s" cname;
  stmts

let find_stmt stmts cname =
  match
    List.find_opt (fun s -> Stmt_poly.name s = cname) stmts
  with
  | Some s -> s
  | None -> err "no statement named %s" cname

let apply_directive stmts directive =
  match (directive : Schedule.t) with
  | Schedule.Interchange { compute; d1; d2 } ->
      on_stmt stmts compute (fun s -> interchange s d1 d2)
  | Schedule.Split { compute; dim; factor; outer; inner } ->
      on_stmt stmts compute (fun s -> split s dim factor ~outer ~inner)
  | Schedule.Tile { compute; d1; d2; f1; f2; o1; o2; i1; i2 } ->
      on_stmt stmts compute (fun s -> tile s d1 d2 f1 f2 ~o1 ~o2 ~i1 ~i2)
  | Schedule.Skew { compute; d1; d2; f1; f2; n1; n2 } ->
      on_stmt stmts compute (fun s -> skew s d1 d2 f1 f2 ~n1 ~n2)
  | Schedule.Reverse { compute; dim; new_dim } ->
      on_stmt stmts compute (fun s -> reverse s dim ~new_dim)
  | Schedule.After { compute; anchor; level } ->
      let anchor = find_stmt stmts anchor in
      on_stmt stmts compute (fun s -> sequence_after s ~anchor ~level)
  | Schedule.Fuse { c1; c2; level } ->
      let anchor = find_stmt stmts c1 in
      on_stmt stmts c2 (fun s -> sequence_after s ~anchor ~level)
  | Schedule.Pipeline { compute; dim; ii } ->
      on_stmt stmts compute (fun s -> pipeline s dim ii)
  | Schedule.Unroll { compute; dim; factor } ->
      on_stmt stmts compute (fun s -> unroll s dim factor)
  | Schedule.Partition _ | Schedule.Auto_dse -> stmts

let original_points (s : Stmt_poly.t) =
  let dims = Basic_set.dims s.domain in
  let orig_order = Compute.iter_names s.compute in
  let points = Feasible.enumerate s.domain in
  let project point =
    let env d =
      let rec find ds vs =
        match (ds, vs) with
        | d' :: _, v :: _ when d' = d -> v
        | _ :: ds, _ :: vs -> find ds vs
        | _ -> raise Not_found
      in
      find dims point
    in
    List.map
      (fun o -> Linexpr.eval env (List.assoc o s.index_map))
      orig_order
  in
  List.sort compare (List.map project points)
