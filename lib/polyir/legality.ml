open Pom_poly
open Pom_dsl

type violation = {
  src_stmt : string;
  dst_stmt : string;
  array : string;
  kind : [ `Raw | `War | `Waw ];
}

(* Per-statement data for the check, everything expressed over the
   transformed dimensions renamed with [tag]. *)
type inst = {
  name : string;
  constrs : Constr.t list;  (* domain constraints, renamed *)
  dims : string list;  (* renamed dims *)
  orig_time : Dep2.time_item list;
  new_time : Dep2.time_item list;
  write : Dep.access;
  reads : Dep.access list;
}

let rename_expr tag e =
  List.fold_left (fun e d -> Linexpr.rename_dim d (tag ^ d) e) e
    (Linexpr.dims e)

let rename_access tag (a : Dep.access) =
  { a with Dep.indices = List.map (rename_expr tag) a.Dep.indices }

let transformed_access (s : Stmt_poly.t) (a : Dep.access) =
  { a with Dep.indices = List.map (Linexpr.subst_all s.Stmt_poly.index_map) a.Dep.indices }

let inst_of tag (orig : Stmt_poly.t) (s : Stmt_poly.t) =
  let constrs =
    List.map
      (fun c ->
        let e = rename_expr tag (Constr.expr c) in
        match c with Constr.Eq _ -> Constr.Eq e | Constr.Ge _ -> Constr.Ge e)
      (Basic_set.constraints s.Stmt_poly.domain)
  in
  let time_of sched index_map =
    List.map
      (function
        | Sched.Const c -> Dep2.C c
        | Sched.Dim d ->
            let e =
              match List.assoc_opt d index_map with
              | Some e -> e
              | None -> Linexpr.var d
            in
            Dep2.V (rename_expr tag e))
      (Sched.items sched)
  in
  let compute = s.Stmt_poly.compute in
  {
    name = Stmt_poly.name s;
    constrs;
    dims = List.map (( ^ ) tag) (Basic_set.dims s.Stmt_poly.domain);
    (* the original schedule reads the original iterators, recovered from
       the transformed dims through the index map *)
    orig_time = time_of orig.Stmt_poly.sched s.Stmt_poly.index_map;
    new_time = time_of s.Stmt_poly.sched [];
    write = rename_access tag (transformed_access s (Compute.write_access compute));
    reads =
      List.map
        (fun a -> rename_access tag (transformed_access s a))
        (Compute.read_accesses compute);
  }

let same_item x y =
  match (x, y) with
  | Dep2.C c, Dep2.C d -> c = d
  | Dep2.V e, Dep2.V f -> Linexpr.equal e f
  | _ -> false

(* The length of the prefix on which both statements' original and
   transformed time items coincide. *)
let unchanged_prefix ~oa ~ob ~na ~nb =
  let rec go m = function
    | x :: oa, y :: ob, x' :: na, y' :: nb
      when same_item x x' && same_item y y' ->
        go (m + 1) (oa, ob, na, nb)
    | _ -> m
  in
  go 0 (oa, ob, na, nb)

(* flip set: same element, originally a-first, transformed b-first.  Only
   the order branches at positions at or past the unchanged time prefix [m]
   are crossed.  An original-order branch at [p < m] puts a before b at
   [p] with equal items before it; those items are the transformed ones
   too, so a precedes b in the new order and no new-order branch holds.  A
   new-order branch at [q < m] is the symmetric case.  Every dropped
   crossing is empty, so the verdict is the full p x q crossing's. *)
let flip_exists a b (acc_a : Dep.access) (acc_b : Dep.access) =
  acc_a.Dep.array = acc_b.Dep.array
  && List.length acc_a.Dep.indices = List.length acc_b.Dep.indices
  &&
  let dims = a.dims @ b.dims in
  let same_element =
    List.map2 Constr.eq acc_a.Dep.indices acc_b.Dep.indices
  in
  let base = a.constrs @ b.constrs @ same_element in
  let oa, ob = Dep2.align a.orig_time b.orig_time in
  let na, nb = Dep2.align a.new_time b.new_time in
  let start = unchanged_prefix ~oa ~ob ~na ~nb in
  let orig_branches = Dep2.order_branches ~start oa ob in
  let new_branches = Dep2.order_branches ~start nb na in
  List.exists
    (fun ob_cs ->
      List.exists
        (fun nb_cs ->
          not (Feasible.is_empty (Basic_set.make dims (base @ ob_cs @ nb_cs))))
        new_branches)
    orig_branches

let compare_violation (a : violation) b = compare a b

let violations ~original ~transformed =
  let insts tag prog_t =
    List.map
      (fun (s : Stmt_poly.t) ->
        let orig = Prog.stmt original (Stmt_poly.name s) in
        inst_of tag orig s)
      prog_t.Prog.stmts
  in
  let as_a = insts "a$" transformed and as_b = insts "b$" transformed in
  let pair_violations a b =
    (* cooperative deadline check between pairs: a legality run on a big
       statement set stops at a pair boundary, and the guard layer maps the
       timeout to "reject the transform" (POM302) *)
    Pom_resilience.Budget.check "legality:pair";
    Pom_resilience.Fault.point "legality:pair";
    let accesses =
      List.map (fun r -> (a.write, r, `Raw)) b.reads
      @ List.map (fun r -> (r, b.write, `War)) a.reads
      @ [ (a.write, b.write, `Waw) ]
    in
    List.filter_map
      (fun (acc_a, acc_b, kind) ->
        if flip_exists a b acc_a acc_b then
          Some
            {
              src_stmt = a.name;
              dst_stmt = b.name;
              array = acc_a.Dep.array;
              kind;
            }
        else None)
      accesses
  in
  List.sort_uniq compare_violation
    (List.concat_map (fun a -> List.concat_map (pair_violations a) as_b) as_a)

let pp_violation ppf v =
  Format.fprintf ppf "%s dependence %s -> %s on %s reversed"
    (match v.kind with `Raw -> "RAW" | `War -> "WAR" | `Waw -> "WAW")
    v.src_stmt v.dst_stmt v.array
