open Pom_poly
open Pom_dsl

type attrs = { pipeline_ii : int option; unroll_factor : int option }

let no_attrs = { pipeline_ii = None; unroll_factor = None }

type stmt = {
  compute_name : string;
  dest : Placeholder.t * Expr.index list;
  rhs : Expr.t;
}

type node =
  | For of {
      iter : string;
      lbs : Ast.bound list;
      ubs : Ast.bound list;
      attrs : attrs;
      body : node list;
    }
  | If of Constr.t list * node list
  | Op of stmt

type array_info = {
  placeholder : Placeholder.t;
  partition : int list;
  partition_kind : Schedule.partition_kind;
}

type func = { name : string; arrays : array_info list; body : node list }

let const_bound (b : Ast.bound) =
  if b.coef = 1 && Linexpr.is_const b.expr then Some (Linexpr.const_of b.expr)
  else None

let const_extent = function
  | For { lbs = [ lb ]; ubs = [ ub ]; _ } -> (
      match (const_bound lb, const_bound ub) with
      | Some l, Some u -> Some (u - l + 1)
      | _ -> None)
  | For _ | If _ | Op _ -> None

let rec stmts_of_node = function
  | For { body; _ } | If (_, body) -> stmts body
  | Op s -> [ s ]

and stmts nodes = List.concat_map stmts_of_node nodes

let counts nodes =
  let rec go (loops, ops) = function
    | For { body; _ } -> List.fold_left go (loops + 1, ops) body
    | If (_, body) -> List.fold_left go (loops, ops) body
    | Op _ -> (loops, ops + 1)
  in
  List.fold_left go (0, 0) nodes

let pp_attrs ppf a =
  (match a.pipeline_ii with
  | Some ii -> Format.fprintf ppf " {pipeline II=%d}" ii
  | None -> ());
  match a.unroll_factor with
  | Some f -> Format.fprintf ppf " {unroll %d}" f
  | None -> ()

let pp_bounds pp_one combiner ppf = function
  | [ b ] -> pp_one ppf b
  | bs ->
      Format.fprintf ppf "%s(%a)" combiner
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_one)
        bs

let pp_lb ppf (b : Ast.bound) =
  if b.coef = 1 then Linexpr.pp ppf b.expr
  else Format.fprintf ppf "ceil((%a)/%d)" Linexpr.pp b.expr b.coef

let pp_ub ppf (b : Ast.bound) =
  if b.coef = 1 then Linexpr.pp ppf b.expr
  else Format.fprintf ppf "floor((%a)/%d)" Linexpr.pp b.expr b.coef

let rec pp_node ppf = function
  | For { iter; lbs; ubs; attrs; body } ->
      Format.fprintf ppf "@[<v 2>affine.for %s = %a to %a%a {@,%a@]@,}" iter
        (pp_bounds pp_lb "max") lbs (pp_bounds pp_ub "min") ubs pp_attrs attrs
        pp_body body
  | If (guards, body) ->
      Format.fprintf ppf "@[<v 2>affine.if (%a) {@,%a@]@,}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " and ")
           Constr.pp)
        guards pp_body body
  | Op s ->
      let p, ixs = s.dest in
      Format.fprintf ppf "%s(%a) = %a  // %s" p.Placeholder.name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Expr.pp_index)
        ixs Expr.pp s.rhs s.compute_name

and pp_body ppf body =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_node ppf body

