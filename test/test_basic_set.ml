open Pom_poly

let v = Linexpr.var

let c = Linexpr.const

(* the box lo <= d < hi for each (d, lo, hi) *)
let box dims_bounds =
  Basic_set.make
    (List.map (fun (d, _, _) -> d) dims_bounds)
    (List.concat_map
       (fun (d, lo, hi) ->
         [ Constr.ge (v d) (c lo); Constr.le (v d) (c (hi - 1)) ])
       dims_bounds)

let test_make_validation () =
  Alcotest.check_raises "duplicate dims"
    (Invalid_argument "Basic_set: duplicate dimension i") (fun () ->
      ignore (Basic_set.make [ "i"; "i" ] []));
  Alcotest.check_raises "unknown dim in constraint"
    (Invalid_argument "Basic_set: constraint j >= 0 mentions unknown dim j")
    (fun () -> ignore (Basic_set.make [ "i" ] [ Constr.Ge (v "j") ]))

let test_membership () =
  let s = box [ ("i", 0, 4); ("j", 0, 4) ] in
  let env i j = function "i" -> i | "j" -> j | _ -> raise Not_found in
  Alcotest.(check bool) "inside" true (Basic_set.mem (env 2 3) s);
  Alcotest.(check bool) "outside" false (Basic_set.mem (env 4 0) s)

let test_intersect () =
  let a = box [ ("i", 0, 10) ] and b = box [ ("i", 5, 20) ] in
  let both = Basic_set.intersect a b in
  let env x = function "i" -> x | _ -> raise Not_found in
  Alcotest.(check bool) "in both" true (Basic_set.mem (env 7) both);
  Alcotest.(check bool) "only in a" false (Basic_set.mem (env 2) both)

let test_project_out_rectangular () =
  let s = box [ ("i", 0, 4); ("j", 2, 6) ] in
  let p = Basic_set.project_out "j" s in
  Alcotest.(check (list string)) "dims" [ "i" ] (Basic_set.dims p);
  Alcotest.(check (pair (option int) (option int))) "range preserved"
    (Some 0, Some 3)
    (Basic_set.const_range "i" p)

let test_project_out_equality () =
  (* { (i, j) : j = i + 1, 0 <= i <= 5 } projected onto j is 1 <= j <= 6 *)
  let s =
    Basic_set.make [ "i"; "j" ]
      [
        Constr.eq (v "j") (Linexpr.add (v "i") (c 1));
        Constr.ge (v "i") (c 0);
        Constr.le (v "i") (c 5);
      ]
  in
  let p = Basic_set.project_out "i" s in
  Alcotest.(check (pair (option int) (option int))) "j range" (Some 1, Some 6)
    (Basic_set.const_range "j" p)

let test_project_fm_combination () =
  (* { (i, j) : i + j <= 6, i >= j, j >= 1 } projected to j: 1 <= j <= 3 *)
  let s =
    Basic_set.make [ "i"; "j" ]
      [
        Constr.le (Linexpr.add (v "i") (v "j")) (c 6);
        Constr.ge (v "i") (v "j");
        Constr.ge (v "j") (c 1);
      ]
  in
  let p = Basic_set.project_out "i" s in
  Alcotest.(check (pair (option int) (option int))) "j range" (Some 1, Some 3)
    (Basic_set.const_range "j" p)

let test_change_space_strip_mine () =
  (* i = 4*o + r with 0 <= r < 4 over 0 <= i < 10: o in 0..2 *)
  let s = box [ ("i", 0, 10) ] in
  let t =
    Basic_set.change_space ~new_dims:[ "o"; "r" ]
      ~bindings:[ ("i", Linexpr.add (Linexpr.term 4 "o") (v "r")) ]
      ~extra:[ Constr.ge (v "r") (c 0); Constr.le (v "r") (c 3) ]
      s
  in
  Alcotest.(check (pair (option int) (option int))) "o range" (Some 0, Some 2)
    (Basic_set.const_range "o" t);
  Alcotest.(check int) "point count preserved" 10 (Feasible.count t)

let test_rename () =
  let s = box [ ("i", 0, 3) ] in
  let r = Basic_set.rename_dim "i" "x" s in
  Alcotest.(check (list string)) "renamed" [ "x" ] (Basic_set.dims r);
  Alcotest.check_raises "clash"
    (Invalid_argument "Basic_set.rename_dim: i already present") (fun () ->
      ignore (Basic_set.rename_dim "i" "i" (box [ ("i", 0, 3); ("j", 0, 3) ])
              |> Basic_set.rename_dim "j" "i"))

let test_simplify () =
  let s =
    Basic_set.make [ "i" ]
      [ Constr.Ge (c 5); Constr.ge (v "i") (c 0); Constr.ge (v "i") (c 0) ]
  in
  let s' = Basic_set.simplify s in
  Alcotest.(check int) "tautologies and duplicates dropped" 1
    (List.length (Basic_set.constraints s'))

let test_obviously_empty () =
  (* a contradictory constant window on one variable, no elimination needed *)
  let infeasible =
    Basic_set.make [ "i"; "j" ]
      [
        Constr.ge (v "i") (c 5);
        Constr.le (v "i") (c 3);
        Constr.ge (v "j") (c 0);
      ]
  in
  Alcotest.(check bool) "lb 5 > ub 3" true
    (Basic_set.is_obviously_empty infeasible);
  Alcotest.(check bool) "feasible box" false
    (Basic_set.is_obviously_empty (box [ ("i", 0, 4); ("j", 0, 4) ]));
  (* scaled bounds: 2i >= 7 and 3i <= 10 give the empty window 4..3 *)
  let scaled =
    Basic_set.make [ "i" ]
      [
        Constr.ge (Linexpr.term 2 "i") (c 7);
        Constr.le (Linexpr.term 3 "i") (c 10);
      ]
  in
  Alcotest.(check bool) "rounded scaled window" true
    (Basic_set.is_obviously_empty scaled);
  (* symbolic bounds are out of scope for the syntactic check even when the
     set is genuinely empty: that is Feasible's job *)
  let symbolic =
    Basic_set.make [ "i"; "n" ]
      [
        Constr.ge (v "i") (v "n");
        Constr.le (v "i") (c 3);
        Constr.ge (v "n") (c 5);
        Constr.le (v "n") (c 5);
      ]
  in
  Alcotest.(check bool) "symbolic window left to Feasible" false
    (Basic_set.is_obviously_empty symbolic);
  Alcotest.(check bool) "but Feasible proves it empty" true
    (Feasible.is_empty symbolic)

let test_bounds_of () =
  let s = box [ ("i", 2, 7); ("j", 0, 3) ] in
  let lowers, uppers, rest = Basic_set.bounds_of "i" s in
  Alcotest.(check int) "one lower" 1 (List.length lowers);
  Alcotest.(check int) "one upper" 1 (List.length uppers);
  Alcotest.(check int) "j bounds in rest" 2 (List.length rest);
  let cl, el = List.hd lowers in
  Alcotest.(check int) "lower coef" 1 cl;
  Alcotest.(check string) "lower expr" "2" (Linexpr.to_string el)

(* the random bounded sets come from the refutation engine's shared
   generator (Pom_refute.Gen) — the same distribution pom_refute fuzzes
   with, with its shrinker, instead of a private ad-hoc generator *)
module Rcase = Pom_refute.Case

let prop_projection_is_shadow =
  (* every point of the set maps into the projection, whichever dimension
     is eliminated *)
  QCheck.Test.make ~name:"projection contains all shadows" ~count:300
    (Pom_refute.Gen.arb_poly ())
    (fun pc ->
      let s = Rcase.set_of_poly pc in
      List.for_all
        (fun d ->
          let p = Basic_set.project_out d s in
          List.for_all
            (fun pt ->
              let env =
                let tbl = List.combine pc.Rcase.dims pt in
                fun x -> List.assoc x tbl
              in
              Basic_set.mem env p)
            (Feasible.enumerate s))
        pc.Rcase.dims)

let prop_elimination_order_invariant =
  (* Invariance under elimination order is conditional: each FM step
     tightens inequalities over the integers, so when a step eliminates a
     dimension with non-unit coefficients, different orders can produce
     different (both sound) over-approximations — the refutation engine
     found {3i + j - 3k + 1 >= 0, -i + 3k >= 0} over the [-1,1] box as a
     counterexample to the unconditional claim (see test/refute-corpus).
     What is guaranteed: project_onto agrees with the equally-ordered
     project_out chain, no true shadow point is ever lost by either
     order, and when every elimination step is exact (unit coefficient or
     unit-equality substitution) both orders agree exactly. *)
  QCheck.Test.make ~name:"projection invariant under elimination order"
    ~count:300
    (Pom_refute.Gen.arb_poly ())
    (fun pc ->
      match pc.Rcase.dims with
      | [] | [ _ ] -> true
      | keep :: elim ->
          let s = Rcase.set_of_poly pc in
          let step_exact d t =
            List.for_all
              (fun cns ->
                abs (Linexpr.coeff (Constr.expr cns) d) <= 1
                || (Constr.is_eq cns
                   && abs (Linexpr.coeff (Constr.expr cns) d) = 1))
              (Basic_set.constraints t)
            || List.exists
                 (fun cns ->
                   Constr.is_eq cns
                   && abs (Linexpr.coeff (Constr.expr cns) d) = 1)
                 (Basic_set.constraints t)
          in
          let chain order =
            List.fold_left
              (fun (t, exact) d ->
                (Basic_set.project_out d t, exact && step_exact d t))
              (s, true) order
          in
          let p1, exact1 = chain elim and p2, exact2 = chain (List.rev elim) in
          let p3 = Basic_set.project_onto [ keep ] s in
          let shadow =
            List.sort_uniq compare (List.map List.hd (Feasible.enumerate s))
          in
          List.for_all
            (fun x ->
              let env _ = x in
              let m1 = Basic_set.mem env p1
              and m2 = Basic_set.mem env p2
              and m3 = Basic_set.mem env p3
              and truth = List.mem x shadow in
              (* project_onto drops dims in the same order as p1 *)
              m3 = m1
              (* soundness: neither order loses a true shadow point *)
              && ((not truth) || (m1 && m2))
              (* exact chains agree with the ground truth, hence each other *)
              && ((not exact1) || m1 = truth)
              && ((not exact2) || m2 = truth))
            (List.init
               (pc.Rcase.hi - pc.Rcase.lo + 1)
               (fun i -> pc.Rcase.lo + i)))

let test_fix_dim () =
  let s = box [ ("i", 0, 4); ("j", 2, 6) ] in
  let fixed = Basic_set.fix_dim "j" 3 s in
  Alcotest.(check (list string)) "dim gone" [ "i" ] (Basic_set.dims fixed);
  let env x = function "i" -> x | _ -> raise Not_found in
  Alcotest.(check bool) "inside survives" true (Basic_set.mem (env 2) fixed);
  Alcotest.(check bool) "outside still out" false
    (Basic_set.mem (env 4) fixed);
  (* fixing outside the dim's range contradicts its bounds *)
  Alcotest.(check bool) "infeasible value empties the set" true
    (Basic_set.is_obviously_empty (Basic_set.fix_dim "j" 99 s));
  (* absent dimension: nothing to substitute, same set back *)
  Alcotest.(check bool) "absent dim is the identity" true
    (Basic_set.fix_dim "k" 5 s == s)

let test_fm_projection_stays_bounded () =
  (* Fourier–Motzkin is quadratic per elimination when every lower bound
     pairs with every upper bound, and repeated projection compounds it —
     unless the projection compacts its output.  A triangular chain with
     every constraint duplicated (self-intersection) plus slack bounds is
     the classic trigger; the constraint count must stay small and bounded
     after each elimination. *)
  let dims = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let chain =
    let rec pairs = function
      | x :: (y :: _ as rest) -> Constr.le (v x) (v y) :: pairs rest
      | [ _ ] | [] -> []
    in
    (Constr.ge (v "a") (c 0) :: pairs dims)
    @ [ Constr.le (v "f") (c 40) ]
    (* slack bounds, strictly weaker than what the chain implies *)
    @ List.map (fun d -> Constr.ge (v d) (c (-5))) dims
    @ List.map (fun d -> Constr.le (v d) (c 100)) dims
  in
  let s = Basic_set.make dims chain in
  let s = Basic_set.intersect s s in
  let budget = 4 * List.length dims in
  let _ =
    List.fold_left
      (fun s d ->
        let p = Basic_set.project_out d s in
        let n = List.length (Basic_set.constraints p) in
        if n > budget then
          Alcotest.failf "projecting %s left %d constraints (budget %d)" d n
            budget;
        p)
      s [ "a"; "b"; "c"; "d"; "e" ]
  in
  ()

let test_fm_projection_cap () =
  (* the library-level cap bounds the constraints a single elimination may
     materialize: [n] lower and [n] upper bounds on [b], plus one
     constraint without it, combine into n * n + 1 constraints.  At n = 142
     (20,165) that trips the cap of 20,000 as a typed budget failure before
     anything is combined; at n = 141 (19,882) the projection goes
     through. *)
  let bounded n =
    let bounds k =
      [ Constr.ge (v "b") (c k); Constr.le (v "b") (c (1000 + k)) ]
    in
    Basic_set.make [ "a"; "b" ]
      (Constr.ge (v "a") (c 0) :: List.concat_map bounds (List.init n Fun.id))
  in
  (match Basic_set.project_out "b" (bounded 142) with
  | exception Pom_resilience.Budget.Budget_exceeded { site; _ } ->
      Alcotest.(check string) "site" "poly:fm-projection" site
  | _ -> Alcotest.fail "expected the projection cap to trip");
  let p = Basic_set.project_out "b" (bounded 141) in
  Alcotest.(check bool) "dim gone" false (List.mem "b" (Basic_set.dims p))

(* Oracles: [compact] and [is_obviously_empty] as they were written before
   gradients were compared in place and the box was read in one pass.  The
   kernel must keep their results exactly, constraint order included. *)
module Oracle = struct
  let gradient e = Linexpr.sub e (Linexpr.const (Linexpr.const_of e))

  let compact constrs =
    let constrs =
      List.filter_map
        (fun c ->
          match Constr.normalize c with
          | None -> Some (Constr.Ge (Linexpr.const (-1)))
          | Some c when Constr.is_tautology c -> None
          | Some c -> Some c)
        constrs
    in
    let constrs = List.sort_uniq Constr.compare constrs in
    let eqs = List.filter Constr.is_eq constrs in
    let eq_value g =
      List.find_map
        (fun c ->
          let e = Constr.expr c in
          let ge = gradient e in
          if Linexpr.equal ge g then Some (-Linexpr.const_of e)
          else if Linexpr.equal ge (Linexpr.neg g) then
            Some (Linexpr.const_of e)
          else None)
        eqs
    in
    let rec prune prev_grad acc = function
      | [] -> List.rev acc
      | (Constr.Eq _ as c) :: rest -> prune prev_grad (c :: acc) rest
      | (Constr.Ge e as c) :: rest -> (
          let g = gradient e in
          match prev_grad with
          | Some pg when Linexpr.equal pg g -> prune prev_grad acc rest
          | _ -> (
              match eq_value g with
              | Some v ->
                  if v + Linexpr.const_of e >= 0 then prune (Some g) acc rest
                  else
                    prune (Some g) (Constr.Ge (Linexpr.const (-1)) :: acc) rest
              | None -> prune (Some g) (c :: acc) rest))
    in
    prune None [] constrs

  let cdiv a b =
    let q = a / b and r = a mod b in
    if r <> 0 && (r < 0) = (b < 0) then q + 1 else q

  let fdiv a b =
    let q = a / b and r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

  let is_obviously_empty s =
    let s = Basic_set.simplify s in
    List.exists Constr.is_contradiction (Basic_set.constraints s)
    || List.exists
         (fun d ->
           let lowers, uppers, _ = Basic_set.bounds_of d s in
           let const_bound fold div bounds =
             List.fold_left
               (fun acc (c, e) ->
                 if Linexpr.is_const e then
                   let v = div (Linexpr.const_of e) c in
                   match acc with None -> Some v | Some a -> Some (fold a v)
                 else acc)
               None bounds
           in
           match (const_bound max cdiv lowers, const_bound min fdiv uppers) with
           | Some lb, Some ub -> lb > ub
           | _ -> false)
         (Basic_set.dims s)
end

(* Systems built from a small pool of gradients, each used with either
   sign, as an equality or an inequality, at non-unit scales: equal and
   opposite gradients, equality-decided inequalities and single-variable
   windows all occur often. *)
let system_dims = [ "i"; "j"; "k" ]

let system_gen =
  let open QCheck.Gen in
  let gradient =
    list_size (int_range 1 3) (pair (oneofl system_dims) (int_range (-3) 3))
  in
  let constr pool =
    map
      (fun (((g, sign), scale), (is_eq, k)) ->
        let e =
          List.fold_left
            (fun e (d, c) -> Linexpr.add e (Linexpr.term (sign * scale * c) d))
            (Linexpr.const k) g
        in
        if is_eq then Constr.Eq e else Constr.Ge e)
      (pair
         (pair (pair (oneofl pool) (oneofl [ 1; -1 ])) (int_range 1 3))
         (pair (frequency [ (1, return true); (3, return false) ])
            (int_range (-8) 8)))
  in
  list_size (int_range 1 3) gradient >>= fun pool ->
  list_size (int_range 0 10) (constr pool)

let arb_system =
  QCheck.make
    ~print:(fun cs -> String.concat "; " (List.map Constr.to_string cs))
    system_gen

let same_constrs a b =
  List.equal Constr.equal a b
  && List.map Constr.to_string a = List.map Constr.to_string b

let prop_compact_matches_oracle =
  QCheck.Test.make ~name:"compact agrees with the oracle" ~count:2000
    arb_system (fun cs ->
      let s = Basic_set.make system_dims cs in
      let got = Basic_set.constraints (Basic_set.simplify s) in
      let want = Oracle.compact cs in
      if not (same_constrs got want) then
        QCheck.Test.fail_reportf "got [%s], oracle [%s]"
          (String.concat "; " (List.map Constr.to_string got))
          (String.concat "; " (List.map Constr.to_string want));
      true)

let prop_obviously_empty_matches_oracle =
  QCheck.Test.make ~name:"is_obviously_empty agrees with the oracle"
    ~count:2000 arb_system (fun cs ->
      let s = Basic_set.make system_dims cs in
      (* projected sets too: FM combinations carry larger coefficients *)
      List.for_all
        (fun s ->
          Basic_set.is_obviously_empty s = Oracle.is_obviously_empty s)
        (s
        :: List.filter_map
             (fun d ->
               try Some (Basic_set.project_out d s)
               with Pom_resilience.Budget.Budget_exceeded _ -> None)
             system_dims))

let () =
  Alcotest.run "basic_set"
    [
      ( "unit",
        [
          Alcotest.test_case "construction validation" `Quick test_make_validation;
          Alcotest.test_case "membership" `Quick test_membership;
          Alcotest.test_case "intersection" `Quick test_intersect;
          Alcotest.test_case "projection (rectangular)" `Quick
            test_project_out_rectangular;
          Alcotest.test_case "projection (via equality)" `Quick
            test_project_out_equality;
          Alcotest.test_case "projection (FM combination)" `Quick
            test_project_fm_combination;
          Alcotest.test_case "change of space (strip-mine)" `Quick
            test_change_space_strip_mine;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "simplify" `Quick test_simplify;
          Alcotest.test_case "obvious emptiness" `Quick test_obviously_empty;
          Alcotest.test_case "bounds extraction" `Quick test_bounds_of;
          Alcotest.test_case "fix_dim substitution" `Quick test_fix_dim;
          Alcotest.test_case "FM projection stays bounded" `Quick
            test_fm_projection_stays_bounded;
          Alcotest.test_case "FM projection cap" `Quick test_fm_projection_cap;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_projection_is_shadow;
            prop_elimination_order_invariant;
            prop_compact_matches_oracle;
            prop_obviously_empty_matches_oracle;
          ] );
    ]
