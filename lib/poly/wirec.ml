module W = Pom_wire.Wire

let linexpr =
  W.conv "linexpr"
    (fun e ->
      ( List.map (fun d -> (d, Linexpr.coeff e d)) (Linexpr.dims e),
        Linexpr.const_of e ))
    (fun (terms, k) ->
      List.fold_left
        (fun acc (d, c) -> Linexpr.add acc (Linexpr.term c d))
        (Linexpr.const k) terms)
    (W.pair (W.list (W.pair W.string W.int)) W.int)

let constr =
  W.union "constr"
    [
      W.case 0 linexpr
        (fun e -> Constr.Eq e)
        (function Constr.Eq e -> Some e | Constr.Ge _ -> None);
      W.case 1 linexpr
        (fun e -> Constr.Ge e)
        (function Constr.Ge e -> Some e | Constr.Eq _ -> None);
    ]
