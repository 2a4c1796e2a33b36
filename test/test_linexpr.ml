open Pom_poly

let v = Linexpr.var

let c = Linexpr.const

let check_expr msg expected actual =
  Alcotest.(check string) msg expected (Linexpr.to_string actual)

let test_constructors () =
  check_expr "zero" "0" Linexpr.zero;
  check_expr "const" "7" (c 7);
  check_expr "neg const" "-3" (c (-3));
  check_expr "var" "i" (v "i");
  check_expr "term" "4i" (Linexpr.term 4 "i");
  check_expr "zero term vanishes" "0" (Linexpr.term 0 "i")

let test_arith () =
  check_expr "add" "i + j" (Linexpr.add (v "i") (v "j"));
  check_expr "add const" "i + 3" (Linexpr.add (v "i") (c 3));
  check_expr "sub cancels" "0" (Linexpr.sub (v "i") (v "i"));
  check_expr "scale" "6i + 2" (Linexpr.scale 2 (Linexpr.add (Linexpr.term 3 "i") (c 1)));
  check_expr "scale by zero" "0" (Linexpr.scale 0 (Linexpr.add (v "i") (c 5)));
  check_expr "neg" "-i - 1" (Linexpr.neg (Linexpr.add (v "i") (c 1)))

let test_coeff_access () =
  let e = Linexpr.add (Linexpr.term 3 "i") (Linexpr.add (Linexpr.term (-2) "j") (c 5)) in
  Alcotest.(check int) "coeff i" 3 (Linexpr.coeff e "i");
  Alcotest.(check int) "coeff j" (-2) (Linexpr.coeff e "j");
  Alcotest.(check int) "coeff absent" 0 (Linexpr.coeff e "k");
  Alcotest.(check int) "const" 5 (Linexpr.const_of e);
  Alcotest.(check (list string)) "dims" [ "i"; "j" ] (Linexpr.dims e);
  Alcotest.(check bool) "not const" false (Linexpr.is_const e);
  Alcotest.(check bool) "const is const" true (Linexpr.is_const (c 9))

let test_subst () =
  (* i := 2k + 1 in 3i + j *)
  let e = Linexpr.add (Linexpr.term 3 "i") (v "j") in
  let repl = Linexpr.add (Linexpr.term 2 "k") (c 1) in
  check_expr "subst" "j + 6k + 3" (Linexpr.subst "i" repl e);
  check_expr "subst absent dim" "3i + j" (Linexpr.subst "z" repl e)

let test_subst_all_simultaneous () =
  (* swap i and j simultaneously: must not cascade *)
  let e = Linexpr.add (v "i") (Linexpr.term 2 "j") in
  let swapped = Linexpr.subst_all [ ("i", v "j"); ("j", v "i") ] e in
  check_expr "swap" "2i + j" swapped

let test_rename () =
  let e = Linexpr.add (Linexpr.term 2 "i") (v "j") in
  check_expr "rename" "j + 2x" (Linexpr.rename_dim "i" "x" e)

let test_eval () =
  let e = Linexpr.add (Linexpr.term 3 "i") (Linexpr.add (Linexpr.term (-1) "j") (c 10)) in
  let env = function "i" -> 2 | "j" -> 5 | _ -> raise Not_found in
  Alcotest.(check int) "eval" 11 (Linexpr.eval env e)

let test_content_div () =
  let e = Linexpr.add (Linexpr.term 6 "i") (Linexpr.add (Linexpr.term 9 "j") (c 12)) in
  Alcotest.(check int) "content" 3 (Linexpr.content e);
  check_expr "div exact" "2i + 3j + 4" (Linexpr.div_exact 3 e);
  Alcotest.check_raises "div not exact" (Invalid_argument "Linexpr.div_exact: not divisible")
    (fun () -> ignore (Linexpr.div_exact 4 e))

let test_compare () =
  Alcotest.(check bool) "equal" true (Linexpr.equal (Linexpr.add (v "i") (c 1)) (Linexpr.add (c 1) (v "i")));
  Alcotest.(check bool) "not equal" false (Linexpr.equal (v "i") (v "j"))

let prop_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:200
    QCheck.(pair (pair small_int small_int) (pair small_int small_int))
    (fun ((a, b), (c', d)) ->
      let open Linexpr in
      let e1 = add (term a "i") (const b) and e2 = add (term c' "j") (const d) in
      equal (add e1 e2) (add e2 e1))

let prop_eval_linear =
  QCheck.Test.make ~name:"eval is linear in scaling" ~count:200
    QCheck.(triple (int_range (-20) 20) (int_range (-50) 50) (int_range (-50) 50))
    (fun (k, ci, cst) ->
      let e = Linexpr.add (Linexpr.term ci "i") (Linexpr.const cst) in
      let env = function "i" -> 7 | _ -> raise Not_found in
      Linexpr.eval env (Linexpr.scale k e) = k * Linexpr.eval env e)

(* Reference model: the [Map.Make (String)] representation [Linexpr] had
   before it became a sorted list, with its operations as they were.  The
   list must agree with it on every observable result, orders included:
   FM tightening makes designs depend on constraint order. *)
module Model = struct
  module Smap = Map.Make (String)

  type t = { coeffs : int Smap.t; const : int }

  let normalize e = { e with coeffs = Smap.filter (fun _ c -> c <> 0) e.coeffs }

  let zero = { coeffs = Smap.empty; const = 0 }

  let const k = { coeffs = Smap.empty; const = k }

  let term c d = normalize { coeffs = Smap.singleton d c; const = 0 }

  let add a b =
    normalize
      {
        coeffs = Smap.union (fun _ x y -> Some (x + y)) a.coeffs b.coeffs;
        const = a.const + b.const;
      }

  let neg a = { coeffs = Smap.map (fun c -> -c) a.coeffs; const = -a.const }

  let sub a b = add a (neg b)

  let scale k a =
    if k = 0 then zero
    else { coeffs = Smap.map (fun c -> k * c) a.coeffs; const = k * a.const }

  let coeff e d = Option.value ~default:0 (Smap.find_opt d e.coeffs)

  let dims e = List.map fst (Smap.bindings e.coeffs)

  let subst d e' e =
    let c = coeff e d in
    if c = 0 then e
    else add { e with coeffs = Smap.remove d e.coeffs } (scale c e')

  let subst_all bindings e =
    let bound, rest =
      List.fold_left
        (fun (bound, rest) (d, repl) ->
          let c = coeff e d in
          if c = 0 then (bound, rest)
          else (add bound (scale c repl), d :: rest))
        (zero, []) bindings
    in
    let remaining = List.fold_left (fun m d -> Smap.remove d m) e.coeffs rest in
    add { e with coeffs = remaining } bound

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  let content e = Smap.fold (fun _ c acc -> gcd c acc) e.coeffs 0

  let div_exact k e =
    let div x =
      if x mod k <> 0 then invalid_arg "Linexpr.div_exact: not divisible"
      else x / k
    in
    { coeffs = Smap.map div e.coeffs; const = div e.const }

  (* the expression minus its constant part *)
  let gradient e = sub e (const e.const)

  let compare a b =
    let c = Smap.compare Int.compare a.coeffs b.coeffs in
    if c <> 0 then c else Int.compare a.const b.const

  let pp ppf e =
    let terms = Smap.bindings e.coeffs in
    if terms = [] then Format.fprintf ppf "%d" e.const
    else begin
      List.iteri
        (fun i (d, c) ->
          if i = 0 then
            if c = 1 then Format.fprintf ppf "%s" d
            else if c = -1 then Format.fprintf ppf "-%s" d
            else Format.fprintf ppf "%d%s" c d
          else if c = 1 then Format.fprintf ppf " + %s" d
          else if c = -1 then Format.fprintf ppf " - %s" d
          else if c > 0 then Format.fprintf ppf " + %d%s" c d
          else Format.fprintf ppf " - %d%s" (-c) d)
        terms;
      if e.const > 0 then Format.fprintf ppf " + %d" e.const
      else if e.const < 0 then Format.fprintf ppf " - %d" (-e.const)
    end

  let to_string e = Format.asprintf "%a" pp e
end

(* an expression is built from raw terms, so repeated dimensions and
   cancelling coefficients both occur *)
let model_dims = [ "a"; "b"; "i"; "i0"; "j" ]

let expr_gen =
  QCheck.Gen.(
    pair
      (list_size (int_range 0 6)
         (pair (oneofl model_dims) (int_range (-3) 3)))
      (int_range (-6) 6))

let build (terms, k) =
  ( List.fold_left
      (fun e (d, c) -> Linexpr.add e (Linexpr.term c d))
      (Linexpr.const k) terms,
    List.fold_left
      (fun m (d, c) -> Model.add m (Model.term c d))
      (Model.const k) terms )

let print_terms (terms, k) =
  String.concat " "
    (List.map (fun (d, c) -> Printf.sprintf "%+d%s" c d) terms)
  ^ Printf.sprintf " %+d" k

let agrees what e m =
  let ok =
    Linexpr.to_string e = Model.to_string m
    && Linexpr.dims e = Model.dims m
    && List.for_all (fun d -> Linexpr.coeff e d = Model.coeff m d) model_dims
    && Linexpr.content e = Model.content m
  in
  if not ok then
    QCheck.Test.fail_reportf "%s: %s, model %s" what (Linexpr.to_string e)
      (Model.to_string m);
  ok

let prop_matches_map_model =
  QCheck.Test.make ~name:"agrees with the Map-based model" ~count:2000
    QCheck.(
      make
        ~print:(fun (((a, b), _), _) -> print_terms a ^ " | " ^ print_terms b)
        Gen.(
          pair
            (pair (pair expr_gen expr_gen) (int_range (-3) 3))
            (pair (oneofl model_dims)
               (list_size (int_range 0 3) (oneofl model_dims)))))
    (fun (((ta, tb), k), (d, bound)) ->
      let a, ma = build ta and b, mb = build tb in
      let bindings = List.map (fun x -> (x, b)) bound in
      let mbindings = List.map (fun x -> (x, mb)) bound in
      let g = Linexpr.content a in
      agrees "a" a ma && agrees "b" b mb
      && Linexpr.compare a b = Model.compare ma mb
      && Linexpr.compare b a = Model.compare mb ma
      && Linexpr.equal a b = (Model.compare ma mb = 0)
      && agrees "add" (Linexpr.add a b) (Model.add ma mb)
      && agrees "sub" (Linexpr.sub a b) (Model.sub ma mb)
      && agrees "neg" (Linexpr.neg a) (Model.neg ma)
      && agrees "scale" (Linexpr.scale k a) (Model.scale k ma)
      && agrees "subst" (Linexpr.subst d b a) (Model.subst d mb ma)
      && agrees "subst_all"
           (Linexpr.subst_all bindings a)
           (Model.subst_all mbindings ma)
      && (g = 0
         ||
         let exact = Linexpr.sub a (Linexpr.const (Linexpr.const_of a)) in
         let mexact = Model.sub ma (Model.const (Linexpr.const_of a)) in
         agrees "div_exact" (Linexpr.div_exact g exact)
           (Model.div_exact g mexact))
      && Linexpr.compare_gradient a b
         = Model.compare (Model.gradient ma) (Model.gradient mb)
      && Linexpr.opposite_gradient a b
         = (Model.compare (Model.gradient ma) (Model.neg (Model.gradient mb))
           = 0)
      (* equal and opposite gradients are rare between two random
         expressions, so pair [a] with a shifted copy and its negation *)
      && (let shifted = Linexpr.add a (Linexpr.const k) in
          Linexpr.compare_gradient a shifted = 0
          && Linexpr.opposite_gradient a (Linexpr.neg shifted)
          && Linexpr.opposite_gradient a shifted = Linexpr.is_const a)
      && Linexpr.single_dim a
         = (match Model.Smap.bindings ma.Model.coeffs with
           | [ t ] -> Some t
           | _ -> None)
      &&
      let outcome f =
        match f () with v -> Ok v | exception Invalid_argument m -> Error m
      in
      match
        ( outcome (fun () -> Linexpr.div_exact 2 a),
          outcome (fun () -> Model.div_exact 2 ma) )
      with
      | Ok e, Ok m -> agrees "div_exact 2" e m
      | Error x, Error y -> x = y
      | _ -> false)

let () =
  Alcotest.run "linexpr"
    [
      ( "unit",
        [
          Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "coefficient access" `Quick test_coeff_access;
          Alcotest.test_case "substitution" `Quick test_subst;
          Alcotest.test_case "simultaneous substitution" `Quick test_subst_all_simultaneous;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "content and exact division" `Quick test_content_div;
          Alcotest.test_case "comparison" `Quick test_compare;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_add_commutes; prop_eval_linear; prop_matches_map_model ] );
    ]
