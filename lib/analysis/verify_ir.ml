open Pom_poly
open Pom_dsl
open Pom_affine

let rec index_vars = function
  | Expr.Ix_var v -> [ v ]
  | Expr.Ix_const _ -> []
  | Expr.Ix_add (a, b) | Expr.Ix_sub (a, b) -> index_vars a @ index_vars b
  | Expr.Ix_mul (_, ix) -> index_vars ix

(* ---- structural checks on the affine dialect ---- *)

let check_access ~loc ~scope acc (p : Placeholder.t) ixs =
  let acc =
    if List.length ixs <> Placeholder.rank p then
      Diagnostic.error ~code:"POM103" ~loc:(loc @ [ "array " ^ p.name ])
        ~note:
          (Printf.sprintf "declare %s with %d dimensions or fix the access"
             p.name (List.length ixs))
        (Printf.sprintf "access %s with %d indices but the array has rank %d"
           p.name (List.length ixs) (Placeholder.rank p))
      :: acc
    else acc
  in
  List.fold_left
    (fun acc v ->
      if List.mem v scope then acc
      else
        Diagnostic.error ~code:"POM101" ~loc:(loc @ [ "array " ^ p.name ])
          ~note:"every index variable must be bound by an enclosing affine.for"
          (Printf.sprintf "index of %s reads undefined iterator %s" p.name v)
        :: acc)
    acc
    (List.concat_map index_vars ixs)

let check_bound_dims ~loc ~scope which acc (b : Ast.bound) =
  List.fold_left
    (fun acc d ->
      if List.mem d scope then acc
      else
        Diagnostic.error ~code:"POM101" ~loc
          (Printf.sprintf "%s bound reads undefined iterator %s" which d)
        :: acc)
    acc
    (Linexpr.dims b.Ast.expr)

let rec check_node ~loc ~scope acc = function
  | Ir.For { iter; lbs; ubs; body; _ } ->
      let loc' = loc @ [ "loop " ^ iter ] in
      let acc =
        if List.mem iter scope then
          Diagnostic.warning ~code:"POM102" ~loc:loc'
            ~note:"rename the inner loop iterator"
            (Printf.sprintf "loop shadows enclosing iterator %s" iter)
          :: acc
        else acc
      in
      let acc =
        List.fold_left (check_bound_dims ~loc:loc' ~scope "lower") acc lbs
      in
      let acc =
        List.fold_left (check_bound_dims ~loc:loc' ~scope "upper") acc ubs
      in
      let acc =
        match (lbs, ubs) with
        | [ lb ], [ ub ] -> (
            match (Ir.const_bound lb, Ir.const_bound ub) with
            | Some l, Some u when l > u ->
                Diagnostic.warning ~code:"POM104" ~loc:loc'
                  ~note:"remove the loop or fix its bounds"
                  (Printf.sprintf
                     "degenerate bounds: lower %d exceeds upper %d, the body \
                      never executes"
                     l u)
                :: acc
            | _ -> acc)
        | _ -> acc
      in
      List.fold_left (check_node ~loc:loc' ~scope:(iter :: scope)) acc body
  | Ir.If (guards, body) ->
      let acc =
        List.fold_left
          (fun acc g ->
            List.fold_left
              (fun acc d ->
                if List.mem d scope then acc
                else
                  Diagnostic.error ~code:"POM101" ~loc:(loc @ [ "if" ])
                    (Printf.sprintf "guard reads undefined iterator %s" d)
                  :: acc)
              acc (Constr.dims g))
          acc guards
      in
      List.fold_left (check_node ~loc:(loc @ [ "if" ]) ~scope) acc body
  | Ir.Op s ->
      let loc' = loc @ [ s.Ir.compute_name ] in
      let dest_p, dest_ixs = s.Ir.dest in
      let acc = check_access ~loc:loc' ~scope acc dest_p dest_ixs in
      List.fold_left
        (fun acc (p, ixs) -> check_access ~loc:loc' ~scope acc p ixs)
        acc
        (Expr.loads s.Ir.rhs)

let check_arrays ~loc acc arrays =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (a : Ir.array_info) ->
      let p = a.Ir.placeholder in
      let loc' = loc @ [ "array " ^ p.Placeholder.name ] in
      let acc =
        if Hashtbl.mem seen p.Placeholder.name then
          Diagnostic.error ~code:"POM105" ~loc:loc'
            ~note:"merge the entries; partition state must be unambiguous"
            "duplicate array_info entry"
          :: acc
        else begin
          Hashtbl.add seen p.Placeholder.name ();
          acc
        end
      in
      let acc =
        if List.length a.Ir.partition <> Placeholder.rank p then
          Diagnostic.error ~code:"POM106" ~loc:loc'
            (Printf.sprintf
               "partition vector has %d factors for a rank-%d array"
               (List.length a.Ir.partition) (Placeholder.rank p))
          :: acc
        else acc
      in
      List.fold_left
        (fun acc f ->
          if f <= 0 then
            Diagnostic.error ~code:"POM106" ~loc:loc'
              (Printf.sprintf "non-positive partition factor %d" f)
            :: acc
          else acc)
        acc a.Ir.partition)
    acc arrays

let verify_func (f : Ir.func) =
  let loc = [ f.Ir.name ] in
  let acc = check_arrays ~loc [] f.Ir.arrays in
  let acc = List.fold_left (check_node ~loc ~scope:[]) acc f.Ir.body in
  Diagnostic.sort acc

(* ---- polyhedral out-of-bounds analysis ---- *)

(* The access footprint escaping the array box along dimension [k] is the
   domain intersected with [idx_k < 0] or [idx_k > extent_k - 1]; a
   non-empty intersection is a concrete iteration that addresses outside
   the array. *)
let bounds_of_access ~loc ~domain (p : Placeholder.t) (a : Dep.access) =
  List.concat
    (List.mapi
       (fun k idx ->
         let extent = List.nth p.Placeholder.shape k in
         let escape name c =
           let set = Basic_set.add_constraint c domain in
           if Feasible.is_empty set then []
           else
             [
               Diagnostic.error ~code:"POM110"
                 ~loc:(loc @ [ Printf.sprintf "array %s dim %d" p.name k ])
                 ~note:
                   (Printf.sprintf "array extent is %d; witness set %s" extent
                      (Basic_set.to_string (Basic_set.simplify set)))
                 (Printf.sprintf "access index %s can run %s the array bound"
                    (Linexpr.to_string idx) name);
             ]
         in
         escape "below" (Constr.le idx (Linexpr.const (-1)))
         @ escape "past"
             (Constr.ge idx (Linexpr.const extent)))
       a.Dep.indices)

let verify_bounds (prog : Pom_polyir.Prog.t) =
  let placeholders = Func.placeholders prog.Pom_polyir.Prog.func in
  let fname = Func.name prog.Pom_polyir.Prog.func in
  let check ~loc ~domain (a : Dep.access) =
    match
      List.find_opt
        (fun (p : Placeholder.t) -> p.name = a.Dep.array)
        placeholders
    with
    | None -> []
    | Some p when List.length a.Dep.indices <> Placeholder.rank p ->
        (* rank errors are POM103's job on the affine level; the box check
           is meaningless here *)
        []
    | Some p -> (
        try bounds_of_access ~loc ~domain p a
        with Invalid_argument m ->
          [
            Diagnostic.error ~code:"POM111" ~loc
              (Printf.sprintf "bounds analysis failed on an access to %s: %s"
                 a.Dep.array m);
          ])
  in
  Diagnostic.sort
    (List.concat_map
       (fun (s : Pom_polyir.Stmt_poly.t) ->
         let loc = [ fname; Pom_polyir.Stmt_poly.name s ] in
         let domain = s.Pom_polyir.Stmt_poly.domain in
         let write, reads = Pom_hls.Summary.transformed_accesses s in
         List.concat_map (check ~loc ~domain) (write :: reads))
       prog.Pom_polyir.Prog.stmts)

let verify ?affine prog =
  let affine =
    match affine with Some f -> f | None -> Lower.lower prog
  in
  Diagnostic.sort (verify_func affine @ verify_bounds prog)
