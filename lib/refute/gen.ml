open Pom_poly
open Pom_dsl

let gi lo hi st = QCheck.Gen.int_range lo hi st

let pick xs st = QCheck.Gen.oneofl xs st

(* ---------- polyhedral cases ---------- *)

(* rebuild an expression from explicit (dim, coeff) terms and a constant:
   the shrinker works on this representation *)
let expr_of_terms terms konst =
  List.fold_left
    (fun acc (d, c) -> Linexpr.add acc (Linexpr.term c d))
    (Linexpr.const konst) terms

let constr_of is_eq terms konst =
  let e = expr_of_terms terms konst in
  if is_eq then Constr.Eq e else Constr.Ge e

let random_constr dims ~coeff ~konst st =
  let terms = List.map (fun d -> (d, gi (-coeff) coeff st)) dims in
  let k = gi (-konst) konst st in
  (* one in five is an equality: exercises the GCD/divisibility and
     unit-equality-substitution paths of projection and emptiness *)
  constr_of (gi 0 4 st = 0) terms k

let poly ?(max_dims = 3) ?(extra = 4) ?(coeff = 3) ?(konst = 6) () st =
  let nd = gi 1 max_dims st in
  let dims = List.filteri (fun i _ -> i < nd) [ "i"; "j"; "k"; "l" ] in
  (* narrower boxes as dimensionality grows keeps brute force cheap *)
  let width = match nd with 1 -> 8 | 2 -> 6 | _ -> 4 in
  let lo = gi (-4) 2 st in
  let hi = lo + gi 0 width st in
  let n = gi 0 extra st in
  let extra = List.init n (fun _ -> random_constr dims ~coeff ~konst st) in
  Case.make_poly ~dims ~lo ~hi extra

let constr_terms c =
  let e = Constr.expr c in
  ( Constr.is_eq c,
    List.map (fun d -> (d, Linexpr.coeff e d)) (Linexpr.dims e),
    Linexpr.const_of e )

(* halve one coefficient (or the constant) toward zero per candidate *)
let shrink_constr c =
  let is_eq, terms, k = constr_terms c in
  let halve v = v / 2 in
  let coeff_candidates =
    List.mapi
      (fun i (_, ci) ->
        if ci = 0 then None
        else
          Some
            (constr_of is_eq
               (List.mapi
                  (fun j (d, cj) -> (d, if i = j then halve cj else cj))
                  terms)
               k))
      terms
    |> List.filter_map Fun.id
  in
  if k <> 0 then constr_of is_eq terms (halve k) :: coeff_candidates
  else coeff_candidates

let shrink_poly (p : Case.poly) =
  let with_extra extra =
    try Some (Case.make_poly ~dims:p.Case.dims ~lo:p.Case.lo ~hi:p.Case.hi extra)
    with Invalid_argument _ -> None
  in
  let drop_one =
    List.mapi
      (fun i _ -> with_extra (List.filteri (fun j _ -> j <> i) p.Case.extra))
      p.Case.extra
  in
  let shrink_one =
    List.concat
      (List.mapi
         (fun i c ->
           List.map
             (fun c' ->
               with_extra
                 (List.mapi (fun j cj -> if i = j then c' else cj) p.Case.extra))
             (shrink_constr c))
         p.Case.extra)
  in
  let narrow =
    if p.Case.lo < p.Case.hi then
      [
        (try
           Some
             (Case.make_poly ~dims:p.Case.dims ~lo:(p.Case.lo + 1)
                ~hi:p.Case.hi p.Case.extra)
         with Invalid_argument _ -> None);
        (try
           Some
             (Case.make_poly ~dims:p.Case.dims ~lo:p.Case.lo
                ~hi:(p.Case.hi - 1) p.Case.extra)
         with Invalid_argument _ -> None);
      ]
    else []
  in
  let drop_dim =
    if List.length p.Case.dims > 1 then
      let d = List.nth p.Case.dims (List.length p.Case.dims - 1) in
      let dims = List.filter (( <> ) d) p.Case.dims in
      let extra =
        List.filter (fun c -> not (List.mem d (Constr.dims c))) p.Case.extra
      in
      [
        (try Some (Case.make_poly ~dims ~lo:p.Case.lo ~hi:p.Case.hi extra)
         with Invalid_argument _ -> None);
      ]
    else []
  in
  List.filter_map Fun.id (drop_one @ shrink_one @ narrow @ drop_dim)

let arb_poly ?max_dims ?extra ?coeff ?konst () =
  QCheck.make
    ~print:(fun p -> Case.to_string (Case.Poly p))
    ~shrink:(fun p -> QCheck.Iter.of_list (shrink_poly p))
    (poly ?max_dims ?extra ?coeff ?konst ())

(* ---------- semantic cases: random loop nests + directives ---------- *)

let shape_n = 8

let arrays =
  List.map
    (fun n -> Placeholder.make n [ shape_n; shape_n ] Dtype.p_float32)
    [ "A"; "B"; "C" ]

let random_index iters st =
  match gi 0 6 st with
  | 0 -> Expr.ixc (gi 0 3 st)
  | 1 | 2 -> Expr.( +! ) (Expr.ix (pick iters st)) (Expr.ixc (gi 0 2 st))
  | _ -> Expr.ix (pick iters st)

let random_binop st =
  pick [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Min; Expr.Max ] st

let func () st =
  let n_computes = gi 1 3 st in
  let func = Func.create "refute" in
  (* current dimension names per compute, in loop order, threaded through
     the directive generation so later directives reference the names
     earlier splits/skews/reverses introduced *)
  let live = Hashtbl.create 4 in
  for m = 0 to n_computes - 1 do
    let cname = Printf.sprintf "s%d" m in
    let n_iters = gi 1 3 st in
    let iters =
      List.filteri (fun i _ -> i < n_iters) [ "i"; "j"; "k" ]
      |> List.map (fun d -> Var.make d 0 (gi 2 4 st))
    in
    let dest_arr = pick arrays st in
    let dest_ixs = [ random_index iters st; random_index iters st ] in
    let accum = gi 0 2 st = 0 in
    let base =
      if accum then Expr.access dest_arr dest_ixs
      else
        Expr.access (pick arrays st)
          [ random_index iters st; random_index iters st ]
    in
    let n_loads = gi 1 2 st in
    let body =
      List.fold_left
        (fun acc _ ->
          let rhs =
            if gi 0 5 st = 0 then Expr.fconst (float_of_int (gi 1 3 st))
            else
              Expr.access (pick arrays st)
                [ random_index iters st; random_index iters st ]
          in
          Expr.Bin (random_binop st, acc, rhs))
        base
        (List.init n_loads Fun.id)
    in
    let where =
      match iters with
      | (a : Var.t) :: (b : Var.t) :: _ when gi 0 5 st = 0 ->
          [ Expr.Cle (Expr.ix_name a.Var.name, Expr.ix_name b.Var.name) ]
      | _ -> []
    in
    ignore
      (Func.compute func cname ~iters ~where ~body ~dest:(dest_arr, dest_ixs) ());
    Hashtbl.replace live cname (List.map (fun (v : Var.t) -> v.Var.name) iters)
  done;
  let fresh = ref 0 in
  let freshname base =
    incr fresh;
    Printf.sprintf "%s%d" base !fresh
  in
  let replace1 d news dims =
    List.concat_map (fun x -> if x = d then news else [ x ]) dims
  in
  let n_dirs = gi 0 3 st in
  for _ = 1 to n_dirs do
    let cname = Printf.sprintf "s%d" (gi 0 (n_computes - 1) st) in
    let dims = Hashtbl.find live cname in
    let nd = List.length dims in
    let kind =
      QCheck.Gen.frequencyl
        [
          (3, `Interchange);
          (3, `Split);
          (2, `Tile);
          (2, `Skew);
          (2, `Reverse);
          (3, `Pipeline);
          (3, `Unroll);
          (2, `Partition);
          (1, `After);
          (1, `Fuse);
        ]
        st
    in
    match kind with
    | `Interchange when nd >= 2 ->
        let p = gi 0 (nd - 2) st in
        let q = gi (p + 1) (nd - 1) st in
        let d1 = List.nth dims p and d2 = List.nth dims q in
        Func.schedule func (Schedule.interchange cname d1 d2);
        Hashtbl.replace live cname
          (List.map
             (fun x -> if x = d1 then d2 else if x = d2 then d1 else x)
             dims)
    | `Split ->
        let d = pick dims st in
        let f = gi 2 3 st in
        let o = freshname (d ^ "o") and i = freshname (d ^ "i") in
        Func.schedule func (Schedule.split cname d f o i);
        Hashtbl.replace live cname (replace1 d [ o; i ] dims)
    | `Tile when nd >= 2 ->
        let p = gi 0 (nd - 2) st in
        let d1 = List.nth dims p and d2 = List.nth dims (p + 1) in
        let f1 = gi 2 3 st and f2 = gi 2 3 st in
        let o1 = freshname (d1 ^ "o")
        and o2 = freshname (d2 ^ "o")
        and i1 = freshname (d1 ^ "i")
        and i2 = freshname (d2 ^ "i") in
        Func.schedule func (Schedule.tile cname d1 d2 f1 f2 o1 o2 i1 i2);
        Hashtbl.replace live cname
          (replace1 d1 [ o1; o2; i1; i2 ] (replace1 d2 [] dims))
    | `Skew when nd >= 2 ->
        let p = gi 0 (nd - 2) st in
        let q = gi (p + 1) (nd - 1) st in
        let d1 = List.nth dims p and d2 = List.nth dims q in
        let f1 = gi 1 2 st in
        let n1 = freshname (d1 ^ "n") and n2 = freshname (d2 ^ "n") in
        Func.schedule func (Schedule.skew cname d1 d2 f1 1 n1 n2);
        Hashtbl.replace live cname
          (replace1 d1 [ n1 ] (replace1 d2 [ n2 ] dims))
    | `Reverse ->
        let d = pick dims st in
        let n = freshname (d ^ "r") in
        Func.schedule func (Schedule.reverse cname d n);
        Hashtbl.replace live cname (replace1 d [ n ] dims)
    | `Pipeline ->
        Func.schedule func (Schedule.pipeline cname (pick dims st) (gi 1 2 st))
    | `Unroll ->
        Func.schedule func (Schedule.unroll cname (pick dims st) (gi 2 4 st))
    | `Partition ->
        let arr = pick arrays st in
        Func.schedule func
          (Schedule.partition arr.Placeholder.name
             [ pick [ 1; 2; 4 ] st; pick [ 1; 2 ] st ]
             (pick [ Schedule.Cyclic; Schedule.Block ] st))
    | `After when n_computes >= 2 ->
        let a = gi 0 (n_computes - 1) st in
        let b = (a + 1 + gi 0 (n_computes - 2) st) mod n_computes in
        let sa = Printf.sprintf "s%d" a and sb = Printf.sprintf "s%d" b in
        (* level >= 1 only, so that seeded case streams and corpus ids
           stay fixed.  A level-0 [after] would be a fair case too: the
           interpreter and the legality check compare against one
           reference program, which leaves it out.  Sharing a loop also
           requires equal nest depths — the AST builder rejects statements
           fused over unequal depths. *)
        if List.length (Hashtbl.find live sa)
           = List.length (Hashtbl.find live sb)
        then Func.schedule func (Schedule.after sa ~anchor:sb ~level:1)
    | `Fuse when n_computes >= 2 ->
        let a = gi 0 (n_computes - 2) st in
        let sa = Printf.sprintf "s%d" a
        and sb = Printf.sprintf "s%d" (a + 1) in
        if List.length (Hashtbl.find live sa)
           = List.length (Hashtbl.find live sb)
        then Func.schedule func (Schedule.fuse sa sb ~level:1)
    | _ -> ()
  done;
  func

(* ---------- semantic shrinking ---------- *)

(* rebuild a function from a compute/directive subset; directives that no
   longer validate (their compute was dropped) are silently discarded —
   the candidate is only kept if it still fails, so a lossy rebuild can
   never invent a spurious counterexample *)
let rebuild computes directives =
  let f = Func.create "refute" in
  List.iter (Func.add_compute f) computes;
  List.iter
    (fun d -> try Func.schedule f d with Invalid_argument _ -> ())
    directives;
  f

let shrink_func f =
  let computes = Func.computes f and directives = Func.directives f in
  let guard mk = try Some (mk ()) with Invalid_argument _ -> None in
  let drop_directive =
    List.mapi
      (fun i _ ->
        guard (fun () ->
            rebuild computes (List.filteri (fun j _ -> j <> i) directives)))
      directives
  in
  let drop_compute =
    if List.length computes > 1 then
      List.mapi
        (fun i _ ->
          guard (fun () ->
              rebuild (List.filteri (fun j _ -> j <> i) computes) directives))
        computes
    else []
  in
  let with_compute i c' =
    guard (fun () ->
        rebuild (List.mapi (fun j c -> if i = j then c' else c) computes)
          directives)
  in
  let shrink_extent =
    List.concat
      (List.mapi
         (fun i (c : Compute.t) ->
           List.filter_map
             (fun (v : Var.t) ->
               if Var.extent v > 1 then
                 let iters =
                   List.map
                     (fun (w : Var.t) ->
                       if w.Var.name = v.Var.name then
                         Var.make w.Var.name w.Var.lb (w.Var.ub - 1)
                       else w)
                     c.Compute.iters
                 in
                 with_compute i
                   (Compute.make c.Compute.name ~iters ~where:c.Compute.where
                      ~body:c.Compute.body ~dest:c.Compute.dest ())
               else None)
             c.Compute.iters)
         computes)
  in
  let shrink_body =
    List.concat
      (List.mapi
         (fun i (c : Compute.t) ->
           match c.Compute.body with
           | Expr.Bin (_, a, b) ->
               List.filter_map
                 (fun body ->
                   with_compute i
                     (Compute.make c.Compute.name ~iters:c.Compute.iters
                        ~where:c.Compute.where ~body ~dest:c.Compute.dest ()))
                 [ a; b ]
           | _ -> [])
         computes)
  in
  List.filter_map Fun.id (drop_directive @ drop_compute)
  @ shrink_extent @ shrink_body

let shrink_case = function
  | Case.Poly p -> List.map (fun p -> Case.Poly p) (shrink_poly p)
  | Case.Semantic f -> List.map (fun f -> Case.Semantic f) (shrink_func f)
  | Case.Degrade f -> List.map (fun f -> Case.Degrade f) (shrink_func f)
  | Case.Qor f -> List.map (fun f -> Case.Qor f) (shrink_func f)
