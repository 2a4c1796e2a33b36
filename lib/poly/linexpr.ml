(* The non-zero coefficients as an association list sorted by dimension
   name ([String.compare]), plus the constant.  The list is exactly the
   bindings a [Map.Make (String)] would hold, in the same order, so
   [compare], [dims] and [pp] give what that map gave: results that depend
   on constraint order (integer tightening at each FM step) stay put. *)
type t = { coeffs : (string * int) list; const : int }

let zero = { coeffs = []; const = 0 }

let const k = { coeffs = []; const = k }

let term c d = if c = 0 then zero else { coeffs = [ (d, c) ]; const = 0 }

let var d = term 1 d

(* merge two sorted coefficient lists, dropping the terms that cancel *)
let rec add_coeffs a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((da, ca) as ta) :: ra, ((db, cb) as tb) :: rb ->
      let o = String.compare da db in
      if o < 0 then ta :: add_coeffs ra b
      else if o > 0 then tb :: add_coeffs a rb
      else
        let c = ca + cb in
        if c = 0 then add_coeffs ra rb else (da, c) :: add_coeffs ra rb

let add a b =
  { coeffs = add_coeffs a.coeffs b.coeffs; const = a.const + b.const }

let neg a =
  { coeffs = List.map (fun (d, c) -> (d, -c)) a.coeffs; const = -a.const }

let sub a b = add a (neg b)

let scale k a =
  if k = 0 then zero
  else
    {
      coeffs = List.map (fun (d, c) -> (d, k * c)) a.coeffs;
      const = k * a.const;
    }

(* the scan stops at the first name past [d] *)
let rec find_coeff d = function
  | [] -> 0
  | (d', c) :: rest ->
      let o = String.compare d' d in
      if o < 0 then find_coeff d rest else if o = 0 then c else 0

let coeff e d = find_coeff d e.coeffs

let const_of e = e.const

let dims e = List.map fst e.coeffs

let is_const e = match e.coeffs with [] -> true | _ -> false

let subst d e' e =
  let c = coeff e d in
  if c = 0 then e
  else
    let without =
      {
        e with
        coeffs = List.filter (fun (d', _) -> not (String.equal d' d)) e.coeffs;
      }
    in
    add without (scale c e')

let subst_all bindings e =
  let bound, rest =
    List.fold_left
      (fun (bound, rest) (d, repl) ->
        let c = coeff e d in
        if c = 0 then (bound, rest) else (add bound (scale c repl), d :: rest))
      (zero, []) bindings
  in
  let remaining =
    {
      e with
      coeffs = List.filter (fun (d, _) -> not (List.mem d rest)) e.coeffs;
    }
  in
  add remaining bound

let rename_dim old_name new_name e =
  if old_name = new_name then e else subst old_name (var new_name) e

let eval env e =
  List.fold_left (fun acc (d, c) -> acc + (c * env d)) e.const e.coeffs

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let content e = List.fold_left (fun acc (_, c) -> gcd c acc) 0 e.coeffs

let div_exact k e =
  if k = 0 then invalid_arg "Linexpr.div_exact: zero divisor";
  let div x =
    if x mod k <> 0 then invalid_arg "Linexpr.div_exact: not divisible"
    else x / k
  in
  {
    coeffs = List.map (fun (d, c) -> (d, div c)) e.coeffs;
    const = div e.const;
  }

(* lexicographic over (dimension, coefficient) pairs, a shorter prefix
   first: the order [Map.compare Int.compare] gives *)
let rec compare_coeffs a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (da, ca) :: ra, (db, cb) :: rb ->
      let o = String.compare da db in
      if o <> 0 then o
      else
        let o = Int.compare ca cb in
        if o <> 0 then o else compare_coeffs ra rb

let compare a b =
  let c = compare_coeffs a.coeffs b.coeffs in
  if c <> 0 then c else Int.compare a.const b.const

let equal a b = compare a b = 0

let compare_gradient a b = compare_coeffs a.coeffs b.coeffs

let rec opposite_coeffs a b =
  match (a, b) with
  | [], [] -> true
  | (da, ca) :: ra, (db, cb) :: rb ->
      ca = -cb && String.equal da db && opposite_coeffs ra rb
  | _ -> false

let opposite_gradient a b = opposite_coeffs a.coeffs b.coeffs

let single_dim e = match e.coeffs with [ t ] -> Some t | _ -> None

let pp ppf e =
  if is_const e then Format.fprintf ppf "%d" e.const
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
      e.coeffs;
    if e.const > 0 then Format.fprintf ppf " + %d" e.const
    else if e.const < 0 then Format.fprintf ppf " - %d" (-e.const)
  end

let to_string e = Format.asprintf "%a" pp e
