open Pom_poly

let v = Linexpr.var

let test_order_branches () =
  (* (0, x, 0) < (0, y, 1): either x < y, or x = y (scalar 0 < 1) *)
  let a = [ Dep2.C 0; Dep2.V (v "x"); Dep2.C 0 ] in
  let b = [ Dep2.C 0; Dep2.V (v "y"); Dep2.C 1 ] in
  Alcotest.(check int) "two branches" 2
    (List.length (Dep2.order_branches a b));
  (* (1, x) < (0, y) is impossible at the leading scalar *)
  let a' = [ Dep2.C 1; Dep2.V (v "x") ] in
  let b' = [ Dep2.C 0; Dep2.V (v "y") ] in
  Alcotest.(check int) "statically dead" 0
    (List.length (Dep2.order_branches a' b'))

let test_align () =
  let a, b = Dep2.align [ Dep2.C 0 ] [ Dep2.C 0; Dep2.V (v "x"); Dep2.C 0 ] in
  Alcotest.(check int) "padded" (List.length b) (List.length a)

let () =
  Alcotest.run "dep2"
    [
      ( "unit",
        [
          Alcotest.test_case "order branches" `Quick test_order_branches;
          Alcotest.test_case "alignment" `Quick test_align;
        ] );
    ]
