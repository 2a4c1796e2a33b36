open Pom_poly

type poly = {
  dims : string list;
  lo : int;
  hi : int;
  extra : Constr.t list;
}

let max_width = 16

let make_poly ~dims ~lo ~hi extra =
  if dims = [] || List.length dims > 4 then
    invalid_arg "Refute.Case: poly case needs 1-4 dimensions";
  if lo > hi then invalid_arg "Refute.Case: poly case box has lo > hi";
  if hi - lo > max_width then
    invalid_arg
      (Printf.sprintf "Refute.Case: poly case box wider than %d" max_width);
  let p = { dims; lo; hi; extra } in
  (* [Basic_set.make] re-runs the dimension checks: duplicate dims and
     constraints over unknown dims are rejected here, so a decoded case is
     as valid as a generated one *)
  ignore
    (Basic_set.make dims
       (List.concat_map
          (fun d ->
            [
              Constr.ge (Linexpr.var d) (Linexpr.const lo);
              Constr.le (Linexpr.var d) (Linexpr.const hi);
            ])
          dims
       @ extra));
  p

let set_of_poly p =
  Basic_set.make p.dims
    (List.concat_map
       (fun d ->
         [
           Constr.ge (Linexpr.var d) (Linexpr.const p.lo);
           Constr.le (Linexpr.var d) (Linexpr.const p.hi);
         ])
       p.dims
    @ p.extra)

let box_points p =
  let rec go = function
    | 0 -> [ [] ]
    | n ->
        let rest = go (n - 1) in
        List.concat_map
          (fun tail -> List.init (p.hi - p.lo + 1) (fun v -> (p.lo + v) :: tail))
          rest
  in
  (* build innermost-last so the result is lexicographic in dim order *)
  List.sort compare (go (List.length p.dims))

type t =
  | Poly of poly
  | Semantic of Pom_dsl.Func.t
  | Degrade of Pom_dsl.Func.t
  | Qor of Pom_dsl.Func.t

let family = function
  | Poly _ -> "poly"
  | Semantic _ -> "semantic"
  | Degrade _ -> "degrade"
  | Qor _ -> "qor"

module W = Pom_wire.Wire

let poly_codec =
  W.conv "refute-poly"
    (fun p -> ((p.dims, p.lo, p.hi), p.extra))
    (fun ((dims, lo, hi), extra) -> make_poly ~dims ~lo ~hi extra)
    (W.pair
       (W.triple (W.list W.string) W.int W.int)
       (W.list Pom_poly.Wirec.constr))

let codec =
  W.union "refute-case"
    [
      W.case 1 poly_codec
        (fun p -> Poly p)
        (function Poly p -> Some p | _ -> None);
      W.case 2 Pom_dsl.Wirec.func
        (fun f -> Semantic f)
        (function Semantic f -> Some f | _ -> None);
      W.case 3 Pom_dsl.Wirec.func
        (fun f -> Degrade f)
        (function Degrade f -> Some f | _ -> None);
      W.case 4 Pom_dsl.Wirec.func
        (fun f -> Qor f)
        (function Qor f -> Some f | _ -> None);
    ]

let id t =
  Printf.sprintf "%s-%08x" (family t)
    (Pom_wire.Crc32.string (W.to_string codec t))

let pp ppf = function
  | Poly p ->
      Format.fprintf ppf "@[<hv 2>poly %a@ (box [%d, %d])@]" Basic_set.pp
        (set_of_poly p) p.lo p.hi
  | Semantic f -> Format.fprintf ppf "@[<hv 2>semantic@ %a@]" Pom_dsl.Func.pp f
  | Degrade f -> Format.fprintf ppf "@[<hv 2>degrade@ %a@]" Pom_dsl.Func.pp f
  | Qor f -> Format.fprintf ppf "@[<hv 2>qor@ %a@]" Pom_dsl.Func.pp f

let to_string t = Format.asprintf "%a" pp t
