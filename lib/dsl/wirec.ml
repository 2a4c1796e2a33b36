module W = Pom_wire.Wire

let dtype =
  W.enum "dtype" Dtype.[ I8; I16; I32; I64; U8; U16; U32; U64; F32; F64 ]

let var =
  W.record3 "var"
    (W.field W.string (fun (v : Var.t) -> v.name))
    (W.field W.int (fun (v : Var.t) -> v.lb))
    (W.field W.int (fun (v : Var.t) -> v.ub))
    Var.make

let placeholder =
  W.record3 "placeholder"
    (W.field W.string (fun (p : Placeholder.t) -> p.name))
    (W.field (W.list W.int) (fun (p : Placeholder.t) -> p.shape))
    (W.field dtype (fun (p : Placeholder.t) -> p.dtype))
    Placeholder.make

let index =
  W.fix "index" (fun index ->
      W.union "index"
        [
          W.case 0 W.string
            (fun s -> Expr.Ix_var s)
            (function Expr.Ix_var s -> Some s | _ -> None);
          W.case 1 W.int
            (fun k -> Expr.Ix_const k)
            (function Expr.Ix_const k -> Some k | _ -> None);
          W.case 2 (W.pair index index)
            (fun (a, b) -> Expr.Ix_add (a, b))
            (function Expr.Ix_add (a, b) -> Some (a, b) | _ -> None);
          W.case 3 (W.pair index index)
            (fun (a, b) -> Expr.Ix_sub (a, b))
            (function Expr.Ix_sub (a, b) -> Some (a, b) | _ -> None);
          W.case 4 (W.pair W.int index)
            (fun (k, i) -> Expr.Ix_mul (k, i))
            (function Expr.Ix_mul (k, i) -> Some (k, i) | _ -> None);
        ])

let cond =
  let ixpair = W.pair index index in
  W.union "cond"
    [
      W.case 0 ixpair
        (fun (a, b) -> Expr.Cge (a, b))
        (function Expr.Cge (a, b) -> Some (a, b) | _ -> None);
      W.case 1 ixpair
        (fun (a, b) -> Expr.Cle (a, b))
        (function Expr.Cle (a, b) -> Some (a, b) | _ -> None);
      W.case 2 ixpair
        (fun (a, b) -> Expr.Cgt (a, b))
        (function Expr.Cgt (a, b) -> Some (a, b) | _ -> None);
      W.case 3 ixpair
        (fun (a, b) -> Expr.Clt (a, b))
        (function Expr.Clt (a, b) -> Some (a, b) | _ -> None);
      W.case 4 ixpair
        (fun (a, b) -> Expr.Ceq (a, b))
        (function Expr.Ceq (a, b) -> Some (a, b) | _ -> None);
    ]

let binop = W.enum "binop" Expr.[ Add; Sub; Mul; Div; Min; Max ]

let expr =
  W.fix "expr" (fun expr ->
      W.union "expr"
        [
          W.case 0
            (W.pair placeholder (W.list index))
            (fun (p, ixs) -> Expr.Load (p, ixs))
            (function Expr.Load (p, ixs) -> Some (p, ixs) | _ -> None);
          W.case 1 W.float
            (fun f -> Expr.Fconst f)
            (function Expr.Fconst f -> Some f | _ -> None);
          W.case 2 (W.triple binop expr expr)
            (fun (op, a, b) -> Expr.Bin (op, a, b))
            (function Expr.Bin (op, a, b) -> Some (op, a, b) | _ -> None);
          W.case 3 expr
            (fun e -> Expr.Neg e)
            (function Expr.Neg e -> Some e | _ -> None);
        ])

let compute =
  W.record5 "compute"
    (W.field W.string (fun (c : Compute.t) -> c.name))
    (W.field (W.list var) (fun (c : Compute.t) -> c.iters))
    (W.field (W.list cond) (fun (c : Compute.t) -> c.where))
    (W.field expr (fun (c : Compute.t) -> c.body))
    (W.field (W.pair placeholder (W.list index)) (fun (c : Compute.t) ->
         c.dest))
    (fun name iters where body dest ->
      Compute.make name ~iters ~where ~body ~dest ())

let partition_kind =
  W.enum "partition_kind" Schedule.[ Cyclic; Block; Complete ]

let schedule =
  let open Schedule in
  W.union "schedule"
    [
      W.case 0
        (W.triple W.string W.string W.string)
        (fun (compute, d1, d2) -> Interchange { compute; d1; d2 })
        (function
          | Interchange { compute; d1; d2 } -> Some (compute, d1, d2)
          | _ -> None);
      W.case 1
        (W.record5 "split"
           (W.field W.string (fun (c, _, _, _, _) -> c))
           (W.field W.string (fun (_, d, _, _, _) -> d))
           (W.field W.int (fun (_, _, f, _, _) -> f))
           (W.field W.string (fun (_, _, _, o, _) -> o))
           (W.field W.string (fun (_, _, _, _, i) -> i))
           (fun c d f o i -> (c, d, f, o, i)))
        (fun (compute, dim, factor, outer, inner) ->
          Split { compute; dim; factor; outer; inner })
        (function
          | Split { compute; dim; factor; outer; inner } ->
              Some (compute, dim, factor, outer, inner)
          | _ -> None);
      W.case 2
        (W.record9 "tile"
           (W.field W.string (fun ((c, _, _), _, _, _) -> c))
           (W.field W.string (fun ((_, d1, _), _, _, _) -> d1))
           (W.field W.string (fun ((_, _, d2), _, _, _) -> d2))
           (W.field W.int (fun (_, (f1, _), _, _) -> f1))
           (W.field W.int (fun (_, (_, f2), _, _) -> f2))
           (W.field W.string (fun (_, _, (o1, _), _) -> o1))
           (W.field W.string (fun (_, _, (_, o2), _) -> o2))
           (W.field W.string (fun (_, _, _, (i1, _)) -> i1))
           (W.field W.string (fun (_, _, _, (_, i2)) -> i2))
           (fun c d1 d2 f1 f2 o1 o2 i1 i2 ->
             ((c, d1, d2), (f1, f2), (o1, o2), (i1, i2))))
        (fun ((compute, d1, d2), (f1, f2), (o1, o2), (i1, i2)) ->
          Tile { compute; d1; d2; f1; f2; o1; o2; i1; i2 })
        (function
          | Tile { compute; d1; d2; f1; f2; o1; o2; i1; i2 } ->
              Some ((compute, d1, d2), (f1, f2), (o1, o2), (i1, i2))
          | _ -> None);
      W.case 3
        (W.record6 "skew"
           (W.field W.string (fun (c, _, _, _, _, _) -> c))
           (W.field (W.pair W.string W.string) (fun (_, ds, _, _, _, _) -> ds))
           (W.field W.int (fun (_, _, f1, _, _, _) -> f1))
           (W.field W.int (fun (_, _, _, f2, _, _) -> f2))
           (W.field W.string (fun (_, _, _, _, n1, _) -> n1))
           (W.field W.string (fun (_, _, _, _, _, n2) -> n2))
           (fun c ds f1 f2 n1 n2 -> (c, ds, f1, f2, n1, n2)))
        (fun (compute, (d1, d2), f1, f2, n1, n2) ->
          Skew { compute; d1; d2; f1; f2; n1; n2 })
        (function
          | Skew { compute; d1; d2; f1; f2; n1; n2 } ->
              Some (compute, (d1, d2), f1, f2, n1, n2)
          | _ -> None);
      W.case 4
        (W.triple W.string W.string W.int)
        (fun (compute, anchor, level) -> After { compute; anchor; level })
        (function
          | After { compute; anchor; level } -> Some (compute, anchor, level)
          | _ -> None);
      W.case 5
        (W.triple W.string W.string W.int)
        (fun (c1, c2, level) -> Fuse { c1; c2; level })
        (function Fuse { c1; c2; level } -> Some (c1, c2, level) | _ -> None);
      W.case 6
        (W.triple W.string W.string W.string)
        (fun (compute, dim, new_dim) -> Reverse { compute; dim; new_dim })
        (function
          | Reverse { compute; dim; new_dim } -> Some (compute, dim, new_dim)
          | _ -> None);
      W.case 7
        (W.triple W.string W.string W.int)
        (fun (compute, dim, ii) -> Pipeline { compute; dim; ii })
        (function
          | Pipeline { compute; dim; ii } -> Some (compute, dim, ii)
          | _ -> None);
      W.case 8
        (W.triple W.string W.string W.int)
        (fun (compute, dim, factor) -> Unroll { compute; dim; factor })
        (function
          | Unroll { compute; dim; factor } -> Some (compute, dim, factor)
          | _ -> None);
      W.case 9
        (W.triple W.string (W.list W.int) partition_kind)
        (fun (array, factors, kind) -> Partition { array; factors; kind })
        (function
          | Partition { array; factors; kind } -> Some (array, factors, kind)
          | _ -> None);
      W.case 10 W.unit
        (fun () -> Auto_dse)
        (function Auto_dse -> Some () | _ -> None);
    ]

let func =
  W.conv "func"
    (fun f -> (Func.name f, Func.computes f, Func.directives f))
    (fun (name, computes, directives) ->
      let f = Func.create name in
      List.iter (Func.add_compute f) computes;
      List.iter (Func.schedule f) directives;
      f)
    (W.triple W.string (W.list compute) (W.list schedule))
