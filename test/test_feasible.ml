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
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_emptiness_exact; prop_min_is_attained ] );
    ]
