open Pom_poly

let v = Linexpr.var

let c = Linexpr.const

let box dims_bounds =
  Basic_set.make
    (List.map (fun (d, _, _) -> d) dims_bounds)
    (List.concat_map
       (fun (d, lo, hi) ->
         [ Constr.ge (v d) (c lo); Constr.le (v d) (c (hi - 1)) ])
       dims_bounds)

let test_emptiness_basic () =
  Alcotest.(check bool) "box non-empty" false (Feasible.is_empty (box [ ("i", 0, 4) ]));
  let empty =
    Basic_set.make [ "i" ] [ Constr.ge (v "i") (c 5); Constr.le (v "i") (c 2) ]
  in
  Alcotest.(check bool) "contradictory bounds" true (Feasible.is_empty empty)

let test_emptiness_gcd () =
  (* 2i = 1 has no integer solution *)
  let s =
    Basic_set.make [ "i" ]
      [ Constr.Eq (Linexpr.add (Linexpr.term 2 "i") (c (-1))) ]
  in
  Alcotest.(check bool) "parity equality empty" true (Feasible.is_empty s)

let test_emptiness_needs_combination () =
  (* i + j >= 5 and i <= 1 and j <= 1: empty only after combining *)
  let s =
    Basic_set.make [ "i"; "j" ]
      [
        Constr.ge (Linexpr.add (v "i") (v "j")) (c 5);
        Constr.le (v "i") (c 1);
        Constr.le (v "j") (c 1);
      ]
  in
  Alcotest.(check bool) "combined emptiness" true (Feasible.is_empty s)

let test_enumerate () =
  let s = box [ ("i", 0, 2); ("j", 0, 3) ] in
  Alcotest.(check (list (list int))) "lexicographic enumeration"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 0 ]; [ 1; 1 ]; [ 1; 2 ] ]
    (Feasible.enumerate s);
  Alcotest.(check int) "count" 6 (Feasible.count s)

let test_enumerate_triangle () =
  (* j <= i over 0 <= i < 3 *)
  let s =
    Basic_set.add_constraint (Constr.le (v "j") (v "i")) (box [ ("i", 0, 3); ("j", 0, 3) ])
  in
  Alcotest.(check int) "triangular count" 6 (Feasible.count s)

let test_sample () =
  let s = box [ ("i", 3, 5) ] in
  Alcotest.(check (option (list int))) "first point" (Some [ 3 ]) (Feasible.sample s);
  let e = Basic_set.make [ "i" ] [ Constr.ge (v "i") (c 1); Constr.le (v "i") (c 0) ] in
  Alcotest.(check (option (list int))) "empty sample" None (Feasible.sample e)

let test_min_max () =
  let s = box [ ("i", 2, 7); ("j", 1, 4) ] in
  let obj = Linexpr.add (v "i") (Linexpr.term 2 "j") in
  Alcotest.(check (option int)) "min" (Some 4) (Feasible.min_of obj s);
  Alcotest.(check (option int)) "max" (Some 12) (Feasible.max_of obj s)

let test_min_max_empty () =
  let e = Basic_set.make [ "i" ] [ Constr.ge (v "i") (c 1); Constr.le (v "i") (c 0) ] in
  Alcotest.(check (option int)) "min of empty" None (Feasible.min_of (v "i") e)

(* [y <= 2x <= y + k] with [y = 2z + 1] over a box: the first dimension
   [x] eliminates inexactly (its bounds pair two coefficients of 2) but [y]
   exactly (a unit equality), so the exact-first elimination order decides
   the set without enumerating.  The answer must be the one enumeration
   gives: with [k = 1], [x = z + 1] is a point; with [k = 0], [2x = 2z + 1]
   has no integer solution. *)
let inexact_first k =
  Basic_set.make [ "x"; "y"; "z" ]
    (Constr.ge (Linexpr.term 2 "x") (v "y")
    :: Constr.le (Linexpr.term 2 "x") (Linexpr.add (v "y") (c k))
    :: Constr.eq (v "y") (Linexpr.add (Linexpr.term 2 "z") (c 1))
    :: List.concat_map
         (fun d -> [ Constr.ge (v d) (c 0); Constr.le (v d) (c 8) ])
         [ "x"; "y"; "z" ])

let test_exact_first_elimination () =
  List.iter
    (fun (name, s, expected) ->
      Alcotest.(check bool) (name ^ ": enumeration") expected
        (Feasible.enumerate s = []);
      Alcotest.(check bool) (name ^ ": is_empty") expected
        (Feasible.is_empty s))
    [ ("non-empty", inexact_first 1, false); ("empty", inexact_first 0, true) ]

(* random small polyhedra come from the refutation engine's shared
   generator — one distribution (and one shrinker) serves this suite,
   test_basic_set, and the pom_refute fuzzing driver *)
module Rcase = Pom_refute.Case

let env_of dims pt =
  let tbl = List.combine dims pt in
  fun x -> List.assoc x tbl

let brute_force_empty pc s =
  not
    (List.exists
       (fun pt -> Basic_set.mem (env_of pc.Rcase.dims pt) s)
       (Rcase.box_points pc))

let prop_emptiness_exact =
  QCheck.Test.make ~name:"is_empty agrees with brute force" ~count:500
    (Pom_refute.Gen.arb_poly ())
    (fun pc ->
      let s = Rcase.set_of_poly pc in
      Feasible.is_empty s = brute_force_empty pc s)

let prop_min_is_attained =
  QCheck.Test.make ~name:"min_of is attained and minimal" ~count:300
    (Pom_refute.Gen.arb_poly ())
    (fun pc ->
      let s = Rcase.set_of_poly pc in
      let obj =
        match pc.Rcase.dims with
        | [ d ] -> v d
        | d :: d' :: _ -> Linexpr.add (v d) (Linexpr.term (-2) d')
        | [] -> assert false
      in
      match Feasible.min_of obj s with
      | None -> Feasible.is_empty s
      | Some m ->
          let values =
            List.map
              (fun pt -> Linexpr.eval (env_of pc.Rcase.dims pt) obj)
              (Feasible.enumerate s)
          in
          (* projection bound is sound (<= all values); exact on this
             unit-coefficient objective *)
          values <> [] && List.for_all (fun x -> m <= x) values)

(* The range as a projection computes it: the objective lifted into the
   set as a new dimension, and every other dimension projected out. *)
let lifted_range e s =
  let obj = "__obj" in
  let lifted =
    Basic_set.make
      (Basic_set.dims s @ [ obj ])
      (Constr.eq (v obj) e :: Basic_set.constraints s)
  in
  Basic_set.const_range obj (Basic_set.project_onto [ obj ] lifted)

(* Whether [range_nonempty e s] projects: a fault armed at the first
   projection fires only then. *)
let projects e s =
  Pom_resilience.Fault.configure "poly:fm-projection=fail@1";
  Fun.protect ~finally:Pom_resilience.Fault.reset (fun () ->
      match Feasible.range_nonempty e s with
      | _ -> false
      | exception Pom_resilience.Fault.Injected _ -> true)

let test_range_shortcut () =
  (* 0 <= i, j <= 9 and i - j = 2 *)
  let s =
    Basic_set.add_constraint
      (Constr.eq (Linexpr.sub (v "i") (v "j")) (c 2))
      (box [ ("i", 0, 10); ("j", 0, 10) ])
  in
  let i_minus_j = Linexpr.sub (v "i") (v "j") in
  List.iter
    (fun (name, e, expected, shortcut) ->
      let range = Alcotest.(pair (option int) (option int)) in
      Alcotest.check range (name ^ ": the lifted projection's")
        (lifted_range e s) (Feasible.range_nonempty e s);
      Alcotest.check range (name ^ ": range") expected
        (Feasible.range_nonempty e s);
      Alcotest.(check bool) (name ^ ": projects") (not shortcut) (projects e s))
    [
      ("gradient", Linexpr.add i_minus_j (c 1), (Some 3, Some 3), true);
      ( "negated gradient",
        Linexpr.sub (c 5) i_minus_j,
        (Some 3, Some 3),
        true );
      ("scaled gradient", Linexpr.scale 2 i_minus_j, (Some 4, Some 4), false);
      ("another gradient", v "i", (Some 2, Some 9), false);
    ]

let prop_range_shortcut_matches_projection =
  QCheck.Test.make ~name:"range shortcut equals the lifted projection"
    ~count:300 (Pom_refute.Gen.arb_poly ()) (fun pc ->
      let g =
        match pc.Rcase.dims with
        | [ d ] -> v d
        | d :: d' :: _ -> Linexpr.sub (v d) (v d')
        | [] -> assert false
      in
      let s = Basic_set.add_constraint (Constr.eq g (c 1)) (Rcase.set_of_poly pc) in
      Feasible.is_empty s
      || List.for_all
           (fun e -> Feasible.range_nonempty e s = lifted_range e s)
           [ Linexpr.add g (c 3); Linexpr.sub (c 3) g ])

(* Oracle: [elimination_exact] as it was written before it read the
   coefficients directly, pairing every lower bound with every upper bound
   from [bounds_of]. *)
let oracle_elimination_exact d s =
  match
    List.find_opt
      (fun c -> Constr.is_eq c && abs (Linexpr.coeff (Constr.expr c) d) = 1)
      (Basic_set.constraints s)
  with
  | Some _ -> true
  | None ->
      let lowers, uppers, _ = Basic_set.bounds_of d s in
      List.for_all
        (fun (cl, _) -> List.for_all (fun (cu, _) -> cl = 1 || cu = 1) uppers)
        lowers

let prop_elimination_exact_matches_oracle =
  QCheck.Test.make ~name:"elimination_exact agrees with the oracle" ~count:1000
    (Pom_refute.Gen.arb_poly ~coeff:4 ~extra:6 ())
    (fun pc ->
      let s = Rcase.set_of_poly pc in
      (* the raw set, its compact form, and each one-step projection, whose
         FM combinations carry non-unit coefficients *)
      let sets =
        s :: Basic_set.simplify s
        :: List.map (fun d -> Basic_set.project_out d s) pc.Rcase.dims
      in
      List.for_all
        (fun s ->
          List.for_all
            (fun d ->
              Feasible.elimination_exact d s = oracle_elimination_exact d s)
            (Basic_set.dims s))
        sets)

let () =
  Alcotest.run "feasible"
    [
      ( "unit",
        [
          Alcotest.test_case "basic emptiness" `Quick test_emptiness_basic;
          Alcotest.test_case "GCD emptiness" `Quick test_emptiness_gcd;
          Alcotest.test_case "combined emptiness" `Quick
            test_emptiness_needs_combination;
          Alcotest.test_case "enumeration" `Quick test_enumerate;
          Alcotest.test_case "triangular enumeration" `Quick test_enumerate_triangle;
          Alcotest.test_case "sampling" `Quick test_sample;
          Alcotest.test_case "optimization" `Quick test_min_max;
          Alcotest.test_case "optimization over empty" `Quick test_min_max_empty;
          Alcotest.test_case "exact-first elimination" `Quick
            test_exact_first_elimination;
          Alcotest.test_case "range shortcut" `Quick test_range_shortcut;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_emptiness_exact;
            prop_min_is_attained;
            prop_elimination_exact_matches_oracle;
            prop_range_shortcut_matches_projection;
          ] );
    ]
