(* [simplified] memoizes {!simplify}: it records that [constrs] is already
   in compact form (normalized, sorted, deduplicated, redundancy-pruned).
   Constraint lists are immutable, so the flag is monotone — it never has to
   be cleared, only left [false] by constructors that may break the form. *)
type t = { dims : string list; constrs : Constr.t list; mutable simplified : bool }

(* The tuple sorted by name, after checking it has no duplicate.  A
   constraint's dimensions come in name order too, so one merge walk against
   it finds the first unknown one ([first_unknown]). *)
let sorted_dims dims =
  let sorted = List.sort String.compare dims in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  match dup sorted with
  | Some d -> invalid_arg ("Basic_set: duplicate dimension " ^ d)
  | None -> sorted

let rec first_unknown known = function
  | [] -> None
  | d :: rest as ds -> (
      match known with
      | [] -> Some d
      | k :: known' ->
          let o = String.compare k d in
          if o < 0 then first_unknown known' ds
          else if o = 0 then first_unknown known' rest
          else Some d)

let check_constr sorted c =
  match first_unknown sorted (Constr.dims c) with
  | None -> ()
  | Some d ->
      invalid_arg
        (Printf.sprintf "Basic_set: constraint %s mentions unknown dim %s"
           (Constr.to_string c) d)

let make dims constrs =
  let sorted = sorted_dims dims in
  List.iter (check_constr sorted) constrs;
  { dims; constrs; simplified = false }

let dims s = s.dims

let n_dims s = List.length s.dims

let constraints s = s.constrs

let add_constraint c s =
  check_constr (List.sort String.compare s.dims) c;
  { s with constrs = c :: s.constrs; simplified = false }

let add_constraints cs s = List.fold_left (fun s c -> add_constraint c s) s cs

let intersect a b =
  if a.dims <> b.dims then
    invalid_arg "Basic_set.intersect: dimension tuples differ";
  { a with constrs = a.constrs @ b.constrs; simplified = false }

let rename_dim old_name new_name s =
  if old_name = new_name then s
  else begin
    if List.mem new_name s.dims then
      invalid_arg ("Basic_set.rename_dim: " ^ new_name ^ " already present");
    {
      dims = List.map (fun d -> if d = old_name then new_name else d) s.dims;
      constrs = List.map (Constr.rename_dim old_name new_name) s.constrs;
      (* renaming can reorder the sort (constraints sort by dimension
         name), so the compact form is not preserved *)
      simplified = false;
    }
  end

let change_space ~new_dims ~bindings ?(extra = []) s =
  let sorted = sorted_dims new_dims in
  let constrs = List.map (Constr.subst_all bindings) s.constrs in
  let result = { dims = new_dims; constrs = constrs @ extra; simplified = false } in
  List.iter (check_constr sorted) result.constrs;
  result

(* Compact form: normalize every constraint (dropping tautologies, turning
   violated constant constraints into the canonical contradiction [-1 >= 0]),
   sort and deduplicate, then prune pairwise-redundant inequalities.
   [Constr.compare] sorts all equalities first, then inequalities by
   (gradient, constant) — the gradient is the expression minus its constant
   part — so a run of inequalities sharing a gradient starts with the
   smallest constant, which is the tightest bound ([g + k >= 0] is
   [g >= -k]); the rest of the run is implied and dropped.  An inequality
   whose gradient (or its negation) is fixed by an equality is decided by
   it: implied or contradictory.  This is what keeps Fourier–Motzkin
   projection bounded — the lower×upper combination step mass-produces
   exactly such duplicates and dominated bounds.  Gradients are compared in
   place ([Linexpr.compare_gradient], [opposite_gradient]), never built. *)
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
  (* the constant value an equality assigns to the gradient of [e], if any *)
  let eq_value e =
    List.find_map
      (fun c ->
        let q = Constr.expr c in
        if Linexpr.compare_gradient q e = 0 then Some (-Linexpr.const_of q)
        else if Linexpr.opposite_gradient q e then Some (Linexpr.const_of q)
        else None)
      eqs
  in
  (* [prev] is the last inequality kept or decided: its gradient heads the
     current run *)
  let rec prune prev acc = function
    | [] -> List.rev acc
    | (Constr.Eq _ as c) :: rest -> prune prev (c :: acc) rest
    | (Constr.Ge e as c) :: rest -> (
        match prev with
        | Some p when Linexpr.compare_gradient p e = 0 -> prune prev acc rest
        | _ -> (
            match eq_value e with
            | Some v ->
                if v + Linexpr.const_of e >= 0 then prune (Some e) acc rest
                else
                  prune (Some e) (Constr.Ge (Linexpr.const (-1)) :: acc) rest
            | None -> prune (Some e) (c :: acc) rest))
  in
  prune None [] constrs

(* FM blowup guard: one elimination may not materialize more combined
   constraints than this before compaction.  It sits far above anything a
   well-formed kernel produces and turns a pathological projection into a
   typed [Budget_exceeded] instead of a quadratic spin. *)
let projection_cap = 20_000

let bounds_of d s =
  let lowers = ref [] and uppers = ref [] and rest = ref [] in
  List.iter
    (fun c ->
      let e = Constr.expr c in
      let cd = Linexpr.coeff e d in
      if cd = 0 then rest := c :: !rest
      else
        let others = Linexpr.sub e (Linexpr.term cd d) in
        match c with
        | Constr.Ge _ ->
            if cd > 0 then lowers := (cd, Linexpr.neg others) :: !lowers
            else uppers := (-cd, others) :: !uppers
        | Constr.Eq _ ->
            let bound =
              if cd > 0 then (cd, Linexpr.neg others) else (-cd, others)
            in
            lowers := bound :: !lowers;
            uppers := bound :: !uppers)
    s.constrs;
  (List.rev !lowers, List.rev !uppers, List.rev !rest)

let fm_site = "poly:fm-projection"

(* Eliminate an equality on [d] when one has coefficient +-1: exact integer
   substitution.  Otherwise combine every lower bound with every upper
   bound, after checking the cap and charging the budget — before anything
   is materialized. *)
let project_out d s =
  if not (List.mem d s.dims) then s
  else begin
    (* injection hook for the degradation refuter: a fault armed here must
       degrade exactly like a genuine projection blow-up *)
    Pom_resilience.Fault.point fm_site;
    let dims = List.filter (fun x -> x <> d) s.dims in
    let unit_eq =
      List.find_index
        (fun c -> Constr.is_eq c && abs (Linexpr.coeff (Constr.expr c) d) = 1)
        s.constrs
    in
    let constrs =
      match unit_eq with
      | Some i ->
          Pom_resilience.Budget.check fm_site;
          (* c*d + rest = 0 with c = +-1, so d = -rest/c *)
          let e = Constr.expr (List.nth s.constrs i) in
          let cd = Linexpr.coeff e d in
          let repl = Linexpr.scale (-cd) (Linexpr.sub e (Linexpr.term cd d)) in
          List.filteri (fun j _ -> j <> i) s.constrs
          |> List.map (Constr.subst d repl)
      | None ->
          let lowers, uppers, rest = bounds_of d s in
          let n_low = List.length lowers and n_up = List.length uppers in
          let materialized = (n_low * n_up) + List.length rest in
          if materialized > projection_cap then
            raise
              (Pom_resilience.Budget.Budget_exceeded
                 {
                   site = fm_site;
                   reason =
                     Printf.sprintf
                       "eliminating %s would combine %d lower x %d upper \
                        bounds into %d constraints (cap %d)"
                       d n_low n_up materialized projection_cap;
                 });
          Pom_resilience.Budget.check fm_site;
          List.concat_map
            (fun (cl, el) ->
              List.map
                (fun (cu, eu) ->
                  (* cl*d >= el and cu*d <= eu imply cl*eu - cu*el >= 0 *)
                  Constr.Ge
                    (Linexpr.sub (Linexpr.scale cl eu) (Linexpr.scale cu el)))
                uppers)
            lowers
          @ rest
    in
    { dims; constrs = compact constrs; simplified = true }
  end

let project_onto keep s =
  let to_drop = List.filter (fun d -> not (List.mem d keep)) s.dims in
  List.fold_left (fun s d -> project_out d s) s to_drop

let mem env s = List.for_all (Constr.sat env) s.constrs

let simplify s =
  if s.simplified then s
  else
    let constrs = compact s.constrs in
    if List.equal Constr.equal constrs s.constrs then begin
      (* already compact: remember so (hot in the emptiness recursion, which
         re-simplifies the set at every elimination step) and keep the
         physical value *)
      s.simplified <- true;
      s
    end
    else { s with constrs; simplified = true }

(* Substitute a constant for one dimension and drop it: the per-value step
   of Feasible's point enumeration.  Unlike [change_space] this skips
   re-validating every constraint against the new dimension tuple — the
   tuple only shrinks and no new names can appear. *)
let fix_dim d v s =
  if not (List.mem d s.dims) then s
  else
    let repl = Linexpr.const v in
    let constrs =
      List.filter_map
        (fun c ->
          if Linexpr.coeff (Constr.expr c) d = 0 then Some c
          else
            let c' = Constr.subst d repl c in
            if Constr.is_tautology c' then None else Some c')
        s.constrs
    in
    { dims = List.filter (fun x -> x <> d) s.dims; constrs; simplified = false }

(* ceil/floor of integer division *)
let cdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) = (b < 0) then q + 1 else q

let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

(* One pass over the single-variable constraints [cd*d + k (op) 0] boxes
   every dimension into a constant window: [lb.(i)]/[ub.(i)] hold the
   tightest bounds on the [i]th dimension, rounded inward, and
   [min_int]/[max_int] stand for no bound, which never closes a window. *)
let box_empty s =
  let index d =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if String.equal x d then i else go (i + 1) rest
    in
    go 0 s.dims
  in
  let n = List.length s.dims in
  let lb = Array.make n min_int and ub = Array.make n max_int in
  let lower i v = if v > lb.(i) then lb.(i) <- v in
  let upper i v = if v < ub.(i) then ub.(i) <- v in
  List.iter
    (fun c ->
      let e = Constr.expr c in
      match Linexpr.single_dim e with
      | None -> ()
      | Some (d, cd) -> (
          let i = index d and k = Linexpr.const_of e in
          if i >= 0 then
            (* [cd*d + k >= 0] bounds [d] below by [-k/cd] when [cd > 0] and
               above by [k/-cd] when [cd < 0]; an equality does both *)
            match c with
            | Constr.Ge _ ->
                if cd > 0 then lower i (cdiv (-k) cd)
                else upper i (fdiv k (-cd))
            | Constr.Eq _ ->
                let c', k' = if cd > 0 then (cd, -k) else (-cd, k) in
                lower i (cdiv k' c');
                upper i (fdiv k' c')))
    s.constrs;
  let rec window i = i < n && (lb.(i) > ub.(i) || window (i + 1)) in
  window 0

let is_obviously_empty s =
  let s = simplify s in
  List.exists Constr.is_contradiction s.constrs || box_empty s

let const_range d s =
  let projected = project_onto [ d ] s in
  let lowers, uppers, _ = bounds_of d projected in
  let lb =
    List.fold_left
      (fun acc (c, e) ->
        if Linexpr.is_const e then
          let v = cdiv (Linexpr.const_of e) c in
          match acc with None -> Some v | Some a -> Some (max a v)
        else acc)
      None lowers
  in
  let ub =
    List.fold_left
      (fun acc (c, e) ->
        if Linexpr.is_const e then
          let v = fdiv (Linexpr.const_of e) c in
          match acc with None -> Some v | Some a -> Some (min a v)
        else acc)
      None uppers
  in
  (lb, ub)

let pp ppf s =
  Format.fprintf ppf "{ [%s] : %a }"
    (String.concat ", " s.dims)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " and ")
       Constr.pp)
    s.constrs

let to_string s = Format.asprintf "%a" pp s
