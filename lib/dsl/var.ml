open Pom_poly

type t = { name : string; lb : int; ub : int }

let make name lb ub =
  if lb >= ub then
    invalid_arg (Printf.sprintf "Var.make %s: empty range [%d, %d)" name lb ub);
  if String.contains name '$' then
    invalid_arg ("Var.make: reserved character in name " ^ name);
  { name; lb; ub }

let extent v = v.ub - v.lb

let constraints v =
  [
    Constr.ge (Linexpr.var v.name) (Linexpr.const v.lb);
    Constr.le (Linexpr.var v.name) (Linexpr.const (v.ub - 1));
  ]
