open Pom_poly
open Pom_polyir

(* Execute the polyhedral AST, collecting statement instances in order. *)
let instances ~cap prog =
  let forest = Prog.to_ast prog in
  let env_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let env d =
    match Hashtbl.find_opt env_tbl d with Some v -> v | None -> raise Not_found
  in
  let acc = ref [] in
  let count = ref 0 in
  let exception Done in
  let rec go = function
    | Ast.For { iter; lbs; ubs; body } ->
        let lb = Ast.eval_lb env lbs and ub = Ast.eval_ub env ubs in
        for x = lb to ub do
          Hashtbl.replace env_tbl iter x;
          List.iter go body
        done
    | Ast.If (guards, body) ->
        if List.for_all (Constr.sat env) guards then List.iter go body
    | Ast.User u ->
        incr count;
        if !count > cap then raise Done;
        acc :=
          (u.Ast.stmt, List.map (fun (_, it) -> env it) u.Ast.bindings) :: !acc
  in
  (try List.iter go forest with Done -> ());
  List.rev !acc

let render ?(max_instances = 16) ?(max_width = 72) prog =
  let profiles = Summary.profile_all prog in
  let evals, _ =
    Latency.eval_program ~partitions:(Prog.partition_of prog) profiles
  in
  let group_of name =
    let p =
      List.find
        (fun (p : Summary.t) -> Stmt_poly.name p.Summary.stmt = name)
        profiles
    in
    p.Summary.group
  in
  let eval_of g =
    List.find (fun (e : Latency.group_eval) -> e.Latency.group = g) evals
  in
  let insts = instances ~cap:max_instances prog in
  (* issue slot: per-statement instance counter times its group's II, plus
     the accumulated latency of earlier groups *)
  let group_start = Hashtbl.create 4 in
  let _ =
    List.fold_left
      (fun t (e : Latency.group_eval) ->
        Hashtbl.replace group_start e.Latency.group t;
        t + e.Latency.latency)
      0 evals
  in
  let counters = Hashtbl.create 8 in
  let rows =
    List.map
      (fun (name, point) ->
        let g = group_of name in
        let e = eval_of g in
        let k = Option.value ~default:0 (Hashtbl.find_opt counters name) in
        Hashtbl.replace counters name (k + 1);
        let depth = max 1 (if e.Latency.pipelined then e.Latency.depth else 4) in
        let step =
          if e.Latency.pipelined then e.Latency.achieved_ii else depth
        in
        let start =
          Option.value ~default:0 (Hashtbl.find_opt group_start g) + (k * step)
        in
        (name, point, start, depth))
      insts
  in
  let horizon =
    List.fold_left (fun acc (_, _, s, d) -> max acc (s + d)) 1 rows
  in
  let scale = max 1 ((horizon + max_width - 1) / max_width) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "cycles 0..%d (one column = %d cycle%s)\n" horizon scale
       (if scale = 1 then "" else "s"));
  List.iter
    (fun (name, point, start, depth) ->
      let label =
        Printf.sprintf "%-6s(%s)" name
          (String.concat "," (List.map string_of_int point))
      in
      let label =
        if String.length label > 14 then String.sub label 0 14 else label
      in
      let pre = start / scale and len = max 1 (depth / scale) in
      Buffer.add_string buf
        (Printf.sprintf "%-14s |%s%s\n" label (String.make pre ' ')
           (String.make len '#')))
    rows;
  Buffer.contents buf
