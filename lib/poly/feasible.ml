let default_limit = 100_000

(* Substitute a constant value for a dimension, dropping the dimension. *)
let fix_dim = Basic_set.fix_dim

(* FM elimination of [d] is integer-exact when every lower/upper bound pair
   has a unit coefficient on at least one side, which holds exactly when
   every lower bound or every upper bound is unit; a unit equality on [d]
   is eliminated by substitution, exactly.  An inequality [c*d + ... >= 0]
   is a lower bound when [c > 0] and an upper bound when [c < 0]; a
   non-unit equality is a non-unit bound on both sides. *)
let elimination_exact d s =
  let rec go lower_nonunit upper_nonunit = function
    | [] -> not (lower_nonunit && upper_nonunit)
    | c :: rest -> (
        let cd = Linexpr.coeff (Constr.expr c) d in
        if cd = 0 || cd = 1 || cd = -1 then
          match c with
          | Constr.Eq _ when cd <> 0 -> true
          | _ -> go lower_nonunit upper_nonunit rest
        else
          match c with
          | Constr.Eq _ -> go true true rest
          | Constr.Ge _ ->
              if cd > 0 then go true upper_nonunit rest
              else go lower_nonunit true rest)
  in
  go false false (Basic_set.constraints s)

(* [`Empty] needs only an infeasible shadow and [`Nonempty] an all-exact
   chain, so both verdicts hold in any elimination order; the order only
   decides how long the chain stays exact.  While it is exact, an exactly
   eliminable dimension goes first: tiling gives the outer dimension a
   non-unit bound that would otherwise turn the chain inexact and force the
   enumeration fallback.  Once inexact, dimensions go in tuple order. *)
let rec rational_empty s exact =
  let s = Basic_set.simplify s in
  if Basic_set.is_obviously_empty s then `Empty
  else
    match Basic_set.dims s with
    | [] -> if exact then `Nonempty else `Maybe
    | d :: _ as ds ->
        let exact_dim =
          if exact then List.find_opt (fun d -> elimination_exact d s) ds
          else None
        in
        let d = Option.value exact_dim ~default:d in
        rational_empty (Basic_set.project_out d s) (exact_dim <> None)

let range_with_window d s =
  let lb, ub = Basic_set.const_range d s in
  let lb = match lb with Some v -> v | None -> -1000 in
  let ub = match ub with Some v -> v | None -> 1000 in
  (lb, ub)

let rec first_point s =
  match Basic_set.dims s with
  | [] -> if Basic_set.is_obviously_empty s then None else Some []
  | d :: _ ->
      let lb, ub = range_with_window d s in
      let rec try_value v =
        if v > ub then None
        else begin
          Pom_resilience.Budget.check "poly:enumerate";
          let s' = fix_dim d v s in
          if Basic_set.is_obviously_empty s' then try_value (v + 1)
          else
            match first_point s' with
            | Some rest -> Some (v :: rest)
            | None -> try_value (v + 1)
        end
      in
      try_value lb

let is_empty s =
  match rational_empty s true with
  | `Empty -> true
  | `Nonempty -> false
  | `Maybe -> first_point s = None

let sample s = first_point s

let fold_points ?(limit = default_limit) f init s =
  let count = ref 0 in
  let rec go prefix s acc =
    match Basic_set.dims s with
    | [] ->
        if Basic_set.is_obviously_empty s then acc
        else begin
          incr count;
          if !count > limit then
            invalid_arg "Feasible: enumeration limit exceeded";
          Pom_resilience.Budget.check "poly:enumerate";
          f acc (List.rev prefix)
        end
    | d :: _ -> (
        match Basic_set.const_range d s with
        | Some lb, Some ub ->
            let rec loop v acc =
              if v > ub then acc
              else
                let s' = fix_dim d v s in
                let acc =
                  if Basic_set.is_obviously_empty s' then acc
                  else go (v :: prefix) s' acc
                in
                loop (v + 1) acc
            in
            loop lb acc
        | _ ->
            invalid_arg
              (Printf.sprintf "Feasible: dimension %s is unbounded" d))
  in
  go [] s init

let enumerate ?limit s =
  List.rev (fold_points ?limit (fun acc p -> p :: acc) [] s)

let count ?limit s = fold_points ?limit (fun acc _ -> acc + 1) 0 s

let with_objective e s k =
  let obj = "__obj" in
  if List.mem obj (Basic_set.dims s) then
    invalid_arg "Feasible: reserved dimension __obj in use";
  let dims = Basic_set.dims s @ [ obj ] in
  let lifted =
    Basic_set.make dims
      (Constr.eq (Linexpr.var obj) e :: Basic_set.constraints s)
  in
  k obj (Basic_set.project_onto [ obj ] lifted)

(* An equality [g + k = 0] (or [-g + k = 0]) of the simplified set whose
   gradient [g] is the objective's fixes the objective on every point:
   [e = g + c] is [c - k] (or [c + k]).  On a non-empty set that is the
   one value the lifted projection finds, without projecting.  A scaled
   gradient ([2g + k = 0]) is left to the projection. *)
let fixed_value e s =
  if Linexpr.is_const e then None
  else
    List.find_map
      (function
        | Constr.Eq f when Linexpr.compare_gradient f e = 0 ->
            Some (Linexpr.const_of e - Linexpr.const_of f)
        | Constr.Eq f when Linexpr.opposite_gradient f e ->
            Some (Linexpr.const_of e + Linexpr.const_of f)
        | Constr.Eq _ | Constr.Ge _ -> None)
      (Basic_set.constraints (Basic_set.simplify s))

let range_nonempty e s =
  match fixed_value e s with
  | Some v -> (Some v, Some v)
  | None ->
      with_objective e s (fun obj projected ->
          Basic_set.const_range obj projected)

let min_of e s = if is_empty s then None else fst (range_nonempty e s)

let max_of e s = if is_empty s then None else snd (range_nonempty e s)
