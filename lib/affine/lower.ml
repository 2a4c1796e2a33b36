open Pom_poly
open Pom_dsl
open Pom_polyir

let index_of_linexpr e =
  let terms =
    List.map
      (fun d ->
        let c = Linexpr.coeff e d in
        if c = 1 then Expr.Ix_var d else Expr.Ix_mul (c, Expr.Ix_var d))
      (Linexpr.dims e)
  in
  let k = Linexpr.const_of e in
  let init = if k = 0 && terms <> [] then None else Some (Expr.Ix_const k) in
  match
    List.fold_left
      (fun acc t ->
        match acc with None -> Some t | Some a -> Some (Expr.Ix_add (a, t)))
      init terms
  with
  | Some ix -> ix
  | None -> Expr.Ix_const 0

(* Rewrite a statement body over the AST iterators: original iterator ->
   index-map expression (over current dims) -> rename current dims to AST
   iterators. *)
let stmt_of_user prog (user : Ast.user) =
  let s = Prog.stmt prog user.Ast.stmt in
  let to_ast_iters e =
    Linexpr.subst_all
      (List.map (fun (d, iter) -> (d, Linexpr.var iter)) user.Ast.bindings)
      e
  in
  let bindings =
    List.map
      (fun (orig, e) -> (orig, index_of_linexpr (to_ast_iters e)))
      s.Stmt_poly.index_map
  in
  let compute = s.Stmt_poly.compute in
  let dest_p, dest_ixs = compute.Compute.dest in
  let subst_ix ix =
    match Expr.subst_indices bindings (Expr.Load (dest_p, [ ix ])) with
    | Expr.Load (_, [ ix' ]) -> ix'
    | _ -> assert false
  in
  {
    Ir.compute_name = user.Ast.stmt;
    dest = (dest_p, List.map subst_ix dest_ixs);
    rhs = Expr.subst_indices bindings compute.Compute.body;
  }

(* Attributes for a loop: pipeline/unroll requests of any statement whose
   schedule dimension is bound to this AST iterator. *)
let attrs_for prog iter body_users =
  let merge acc (user : Ast.user) =
    let s = Prog.stmt prog user.Ast.stmt in
    let dims_here =
      List.filter_map
        (fun (d, it) -> if it = iter then Some d else None)
        user.Ast.bindings
    in
    let { Stmt_poly.pipeline; unrolls } = s.Stmt_poly.hw in
    let acc =
      match pipeline with
      | Some (d, ii) when List.mem d dims_here ->
          {
            acc with
            Ir.pipeline_ii =
              Some
                (match acc.Ir.pipeline_ii with
                | Some ii' -> min ii ii'
                | None -> ii);
          }
      | _ -> acc
    in
    List.fold_left
      (fun acc (d, f) ->
        if List.mem d dims_here then
          {
            acc with
            Ir.unroll_factor =
              Some
                (match acc.Ir.unroll_factor with
                | Some f' -> max f f'
                | None -> f);
          }
        else acc)
      acc unrolls
  in
  List.fold_left merge Ir.no_attrs body_users

let rec lower_node prog = function
  | Ast.For { iter; lbs; ubs; body } ->
      let attrs = attrs_for prog iter (Ast.users body) in
      Ir.For { iter; lbs; ubs; attrs; body = List.map (lower_node prog) body }
  | Ast.If (guards, body) -> Ir.If (guards, List.map (lower_node prog) body)
  | Ast.User u -> Ir.Op (stmt_of_user prog u)

let lower prog =
  let forest = Prog.to_ast prog in
  let arrays =
    List.map
      (fun p ->
        let partition = Prog.partition_of prog p.Placeholder.name in
        let kind =
          match List.assoc_opt p.Placeholder.name prog.Prog.partitions with
          | Some (_, kind) -> kind
          | None -> Schedule.Cyclic
        in
        { Ir.placeholder = p; partition; partition_kind = kind })
      (Func.placeholders prog.Prog.func)
  in
  {
    Ir.name = Func.name prog.Prog.func;
    arrays;
    body = List.map (lower_node prog) forest;
  }
