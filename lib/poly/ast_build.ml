type stmt = { name : string; domain : Basic_set.t; sched : Sched.t }

exception Schedule_error of string

(* Build state for one statement: domain dims are renamed to the canonical
   AST iterator as each schedule level is entered. *)
type state = {
  name : string;
  work : Basic_set.t;
  remaining : Sched.item list;
  bindings : (string * string) list;  (* original dim -> AST iterator *)
  used : Constr.t list;  (* normalized constraints enforced by loop bounds *)
  unprocessed : string list;  (* domain dims not yet entered *)
}

let normalize_exn c =
  match Constr.normalize c with
  | Some c' -> c'
  | None -> Constr.Ge (Linexpr.const (-1))

let constr_of_lower iter (coef, e) =
  normalize_exn (Constr.Ge (Linexpr.sub (Linexpr.term coef iter) e))

let constr_of_upper iter (coef, e) =
  normalize_exn (Constr.Ge (Linexpr.sub e (Linexpr.term coef iter)))

let compare_bound (c1, e1) (c2, e2) =
  match Int.compare c1 c2 with 0 -> Linexpr.compare e1 e2 | n -> n

let sort_bounds bs = List.sort compare_bound bs

(* [Linexpr.t] is abstract, so compare bounds with [Linexpr.compare], never
   with polymorphic [=]. *)
let equal_bounds (l1, u1) (l2, u2) =
  let same = List.equal (fun a b -> compare_bound a b = 0) in
  same l1 l2 && same u1 u2

(* Drop bounds implied by the remaining constraints: bound [b] of the split
   [(kept_before, b, rest_after)] is redundant when the set with [b] replaced
   by its integer negation is empty. *)
let prune_redundant dims iter ~negate other_constrs bounds =
  let rec go kept = function
    | [] -> List.rev kept
    | b :: rest ->
        let others =
          other_constrs
          @ List.map
              (fun (c, e) ->
                if negate == `Lower then constr_of_lower iter (c, e)
                else constr_of_upper iter (c, e))
              (List.rev_append kept rest)
        in
        let negated =
          let c, e = b in
          if negate == `Lower then
            (* not (c*iter >= e): c*iter <= e - 1 *)
            Constr.Ge
              (Linexpr.sub (Linexpr.sub e (Linexpr.const 1))
                 (Linexpr.term c iter))
          else
            Constr.Ge
              (Linexpr.sub (Linexpr.term c iter)
                 (Linexpr.add e (Linexpr.const 1)))
        in
        let test = Basic_set.make dims (negated :: others) in
        if Feasible.is_empty test then go kept rest else go (b :: kept) rest
  in
  go [] bounds

(* Bounds of [iter] in [st.work] with unprocessed dims projected away. *)
let level_bounds st iter =
  let projected =
    List.fold_left
      (fun s d -> Basic_set.project_out d s)
      st.work st.unprocessed
  in
  (* Outer loop bounds already emitted participate as context so that
     bounds they subsume get pruned. *)
  let projected = Basic_set.add_constraints st.used projected in
  let projected = Basic_set.simplify projected in
  let lowers, uppers, rest = Basic_set.bounds_of iter projected in
  if lowers = [] || uppers = [] then
    raise
      (Schedule_error
         (Printf.sprintf "statement %s: iterator %s is unbounded" st.name iter));
  let dims = Basic_set.dims projected in
  let upper_constrs = List.map (constr_of_upper iter) uppers in
  let lower_constrs = List.map (constr_of_lower iter) lowers in
  let lowers =
    prune_redundant dims iter ~negate:`Lower (rest @ upper_constrs) lowers
  in
  let uppers =
    prune_redundant dims iter ~negate:`Upper (rest @ lower_constrs) uppers
  in
  (sort_bounds lowers, sort_bounds uppers)

let fresh_iter depth states =
  let taken =
    List.concat_map
      (fun st -> Basic_set.dims st.work @ st.unprocessed)
      states
  in
  let rec pick candidate =
    if List.mem candidate taken then pick (candidate ^ "_") else candidate
  in
  pick (Printf.sprintf "c%d" depth)

(* A domain constraint needs a guard only when not entailed by the emitted
   loop bounds: test emptiness of (bounds and not c). *)
let entailed dims used c =
  let negations =
    match c with
    | Constr.Ge e ->
        [ Constr.Ge (Linexpr.sub (Linexpr.const (-1)) e) ]
    | Constr.Eq e ->
        [
          Constr.Ge (Linexpr.sub e (Linexpr.const 1));
          Constr.Ge (Linexpr.sub (Linexpr.neg e) (Linexpr.const 1));
        ]
  in
  List.for_all
    (fun n -> Feasible.is_empty (Basic_set.make dims (n :: used)))
    negations

let emit_user st =
  let dims = Basic_set.dims st.work in
  let guards =
    List.filter
      (fun c ->
        not (List.exists (Constr.equal c) st.used)
        && not (entailed dims st.used c))
      (List.map normalize_exn
         (Basic_set.constraints (Basic_set.simplify st.work)))
  in
  let guards = List.filter (fun c -> not (Constr.is_tautology c)) guards in
  let user = Ast.User { stmt = st.name; bindings = List.rev st.bindings } in
  if guards = [] then user else Ast.If (guards, [ user ])

let take_const st =
  match st.remaining with
  | Sched.Const c :: rest -> (c, { st with remaining = rest })
  | _ -> raise (Schedule_error "expected scalar position in schedule")

(* Group consecutive states by their leading scalar constant, ascending. *)
let group_by_const states =
  let tagged = List.map take_const states in
  let consts = List.sort_uniq Int.compare (List.map fst tagged) in
  List.map
    (fun c -> List.filter_map (fun (c', st) -> if c = c' then Some st else None) tagged)
    consts

let enter_level iter st =
  match st.remaining with
  | Sched.Dim d :: rest ->
      let work = Basic_set.rename_dim d iter st.work in
      {
        st with
        work;
        remaining = rest;
        bindings = (d, iter) :: st.bindings;
        unprocessed = List.filter (fun x -> x <> d) st.unprocessed;
      }
  | _ -> raise (Schedule_error "expected loop dimension in schedule")

let rec build_group depth states =
  List.concat_map (build_subgroup depth) (group_by_const states)

(* A subgroup shares the leading scalar constant.  Statements whose
   schedule is exhausted become user nodes; the rest share a loop. *)
and build_subgroup depth states =
  let finished, continuing =
    List.partition (fun st -> st.remaining = []) states
  in
  let users = List.map emit_user finished in
  match continuing with
  | [] -> users
  | _ ->
      if finished <> [] then
        raise
          (Schedule_error
             "statements with identical scalar prefixes have different depths");
      let iter = fresh_iter depth states in
      let entered = List.map (enter_level iter) continuing in
      let with_bounds =
        List.map (fun st -> (st, level_bounds st iter)) entered
      in
      let all_equal =
        match with_bounds with
        | [] -> true
        | (_, first) :: rest ->
            List.for_all (fun (_, b) -> equal_bounds b first) rest
      in
      let lbs, ubs, entered =
        if all_equal then begin
          let _, (lowers, uppers) = List.hd with_bounds in
          let entered =
            List.map
              (fun (st, (lo, up)) ->
                let used =
                  List.map (constr_of_lower iter) lo
                  @ List.map (constr_of_upper iter) up
                  @ st.used
                in
                { st with used })
              with_bounds
          in
          ( List.map (fun (c, e) -> Ast.bound c e) lowers,
            List.map (fun (c, e) -> Ast.bound c e) uppers,
            entered )
        end
        else begin
          (* bounding box over constant ranges; users keep full guards *)
          let const_bound f proj_side st =
            let projected =
              List.fold_left
                (fun s d -> Basic_set.project_out d s)
                st.work st.unprocessed
            in
            let projected =
              Basic_set.project_onto [ iter ] projected
            in
            match proj_side (Basic_set.const_range iter projected) with
            | Some v -> v
            | None ->
                raise
                  (Schedule_error
                     (Printf.sprintf
                        "statement %s: no constant %s bound for fused loop"
                        st.name f))
          in
          let lb =
            List.fold_left
              (fun acc st -> min acc (const_bound "lower" fst st))
              max_int entered
          and ub =
            List.fold_left
              (fun acc st -> max acc (const_bound "upper" snd st))
              min_int entered
          in
          ( [ Ast.bound 1 (Linexpr.const lb) ],
            [ Ast.bound 1 (Linexpr.const ub) ],
            entered )
        end
      in
      let body = build_group (depth + 1) entered in
      users @ [ Ast.For { iter; lbs; ubs; body } ]

let build stmts =
  let states =
    List.map
      (fun s ->
        let sched_dims = List.sort String.compare (Sched.dims s.sched)
        and dom_dims = List.sort String.compare (Basic_set.dims s.domain) in
        if sched_dims <> dom_dims then
          raise
            (Schedule_error
               (Printf.sprintf
                  "statement %s: schedule dims do not match domain dims"
                  s.name));
        {
          name = s.name;
          work = s.domain;
          remaining = Sched.items s.sched;
          bindings = [];
          used = [];
          unprocessed = Basic_set.dims s.domain;
        })
      stmts
  in
  build_group 0 states
