open Pom_dsl
open Pom_affine

let eval_index env ix =
  Pom_poly.Linexpr.eval env (Expr.index_to_linexpr ix)

let rec eval_expr env mem = function
  | Expr.Load (p, ixs) ->
      Memory.get mem p.Placeholder.name (List.map (eval_index env) ixs)
  | Expr.Fconst f -> f
  | Expr.Neg a -> -.eval_expr env mem a
  | Expr.Bin (op, a, b) -> (
      let x = eval_expr env mem a and y = eval_expr env mem b in
      match op with
      | Expr.Add -> x +. y
      | Expr.Sub -> x -. y
      | Expr.Mul -> x *. y
      | Expr.Div -> x /. y
      | Expr.Min -> Float.min x y
      | Expr.Max -> Float.max x y)

let run_reference func mem =
  List.iter
    (fun (c : Compute.t) ->
      let env_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let env d =
        match Hashtbl.find_opt env_tbl d with
        | Some v -> v
        | None -> raise Not_found
      in
      let p, dest_ixs = c.Compute.dest in
      let rec loop = function
        | [] ->
            if List.for_all (Expr.cond_sat env) c.Compute.where then begin
              let v = eval_expr env mem c.Compute.body in
              Memory.set mem p.Placeholder.name
                (List.map (eval_index env) dest_ixs)
                v
            end
        | (it : Var.t) :: rest ->
            for v = it.Var.lb to it.Var.ub - 1 do
              Hashtbl.replace env_tbl it.Var.name v;
              loop rest
            done
      in
      loop c.Compute.iters)
    (Func.computes func)

let run_affine (f : Ir.func) mem =
  let env_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let env d =
    match Hashtbl.find_opt env_tbl d with
    | Some v -> v
    | None -> raise Not_found
  in
  let rec exec = function
    | Ir.For { iter; lbs; ubs; body; _ } ->
        let lb = Pom_poly.Ast.eval_lb env lbs
        and ub = Pom_poly.Ast.eval_ub env ubs in
        for v = lb to ub do
          Hashtbl.replace env_tbl iter v;
          List.iter exec body
        done
    | Ir.If (guards, body) ->
        if List.for_all (Pom_poly.Constr.sat env) guards then
          List.iter exec body
    | Ir.Op s ->
        let p, dest_ixs = s.Ir.dest in
        let v = eval_expr env mem s.Ir.rhs in
        Memory.set mem p.Placeholder.name
          (List.map (eval_index env) dest_ixs)
          v
  in
  List.iter exec f.Ir.body

let run_structural func mem =
  run_affine (Lower.lower (Pom_polyir.Prog.reference func)) mem

let divergence func prog =
  let ps = Func.placeholders func in
  let ref_mem = Memory.create ps in
  let opt_mem = Memory.copy ref_mem in
  run_structural func ref_mem;
  run_affine (Lower.lower prog) opt_mem;
  Memory.max_diff ref_mem opt_mem
