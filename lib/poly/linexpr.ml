module Smap = Map.Make (String)

type t = { coeffs : int Smap.t; const : int }

let normalize e =
  { e with coeffs = Smap.filter (fun _ c -> c <> 0) e.coeffs }

let zero = { coeffs = Smap.empty; const = 0 }

let const k = { coeffs = Smap.empty; const = k }

let term c d =
  normalize { coeffs = Smap.singleton d c; const = 0 }

let var d = term 1 d

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

let coeff e d = match Smap.find_opt d e.coeffs with Some c -> c | None -> 0

let const_of e = e.const

let dims e = Smap.bindings e.coeffs |> List.map fst

let is_const e = Smap.is_empty e.coeffs

let subst d e' e =
  let c = coeff e d in
  if c = 0 then e
  else
    let without = { e with coeffs = Smap.remove d e.coeffs } in
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
    { e with coeffs = List.fold_left (fun m d -> Smap.remove d m) e.coeffs rest }
  in
  add remaining bound

let rename_dim old_name new_name e =
  if old_name = new_name then e else subst old_name (var new_name) e

let eval env e =
  Smap.fold (fun d c acc -> acc + (c * env d)) e.coeffs e.const

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let content e = Smap.fold (fun _ c acc -> gcd c acc) e.coeffs 0

let div_exact k e =
  if k = 0 then invalid_arg "Linexpr.div_exact: zero divisor";
  let div x =
    if x mod k <> 0 then invalid_arg "Linexpr.div_exact: not divisible"
    else x / k
  in
  { coeffs = Smap.map div e.coeffs; const = div e.const }

let compare a b =
  let c = Smap.compare Int.compare a.coeffs b.coeffs in
  if c <> 0 then c else Int.compare a.const b.const

let equal a b = compare a b = 0

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
