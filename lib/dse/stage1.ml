open Pom_dsl
open Pom_depgraph

type node_plan = {
  compute : string;
  final_order : string list;
  skewed : bool;
  tight : bool;
}

type t = {
  directives : Schedule.t list;
  nodes : node_plan list;
  iterations : int;
  paths : string list list;
}

(* Emit the interchanges realizing [desired] starting from [current]. *)
let realize_order compute current desired =
  let cur = Array.of_list current in
  let swaps = ref [] in
  List.iteri
    (fun i want ->
      if cur.(i) <> want then begin
        let j = ref i in
        Array.iteri (fun k d -> if d = want then j := k) cur;
        swaps := Schedule.interchange compute cur.(i) want :: !swaps;
        let tmp = cur.(i) in
        cur.(i) <- cur.(!j);
        cur.(!j) <- tmp
      end)
    desired;
  List.rev !swaps

(* Per-node plan from the fine-grained hints. *)
let plan_node (node : Graph.node) =
  let cname = node.Graph.compute.Compute.name in
  let original = Compute.iter_names node.Graph.compute in
  match Hints.suggest node.Graph.fine with
  | Hints.Keep ->
      ([], { compute = cname; final_order = original; skewed = false; tight = false })
  | Hints.Reorder order ->
      ( realize_order cname original order,
        { compute = cname; final_order = order; skewed = false; tight = false } )
  | Hints.Skew_hint { d1; d2; factor; order } ->
      let n1 = d1 ^ "s" and n2 = d2 ^ "s" in
      let rename d = if d = d1 then n1 else if d = d2 then n2 else d in
      let start = List.map rename original in
      let desired = List.map rename order in
      ( Schedule.skew cname d1 d2 factor 1 n1 n2
        :: realize_order cname start desired,
        { compute = cname; final_order = desired; skewed = true; tight = false }
      )
  | Hints.Tight _ ->
      ([], { compute = cname; final_order = original; skewed = false; tight = true })

(* Fusion groups declared by the user ([After]/[Fuse] at level >= 1),
   as lists of compute names in program order. *)
let user_fusion_groups func =
  let pairs =
    List.filter_map
      (fun d ->
        match (d : Schedule.t) with
        | Schedule.After { compute; anchor; level } when level >= 1 ->
            Some (anchor, compute)
        | Schedule.Fuse { c1; c2; level } when level >= 1 -> Some (c1, c2)
        | _ -> None)
      (Func.directives func)
  in
  let rec group_of groups name =
    match groups with
    | [] -> None
    | g :: rest -> if List.mem name !g then Some g else group_of rest name
  in
  let groups = ref [] in
  List.iter
    (fun (a, b) ->
      match (group_of !groups a, group_of !groups b) with
      | Some g, None -> g := !g @ [ b ]
      | None, Some g -> g := a :: !g
      | Some g1, Some g2 when g1 != g2 ->
          g1 := !g1 @ !g2;
          groups := List.filter (fun g -> g != g2) !groups
      | Some _, Some _ -> ()
      | None, None -> groups := ref [ a; b ] :: !groups)
    pairs;
  let order = List.map (fun (c : Compute.t) -> c.name) (Func.computes func) in
  List.map
    (fun g ->
      List.filter (fun n -> List.mem n !g) order)
    (List.rev !groups)

(* Fusion directives declared by the user (the [after]/[fuse] calls of the
   algorithm specification, Fig. 16), restricted to one group. *)
let user_fusion_directives func g =
  List.filter
    (fun d ->
      match (d : Schedule.t) with
      | Schedule.After { compute; anchor; level } when level >= 1 ->
          List.mem compute g && List.mem anchor g
      | Schedule.Fuse { c1; c2; level } when level >= 1 ->
          List.mem c1 g && List.mem c2 g
      | _ -> false)
    (Func.directives func)

(* Any data edge between two members means distributing them would change
   the specified interleaved semantics — the group must stay fused. *)
let has_cross_edges graph g =
  List.exists
    (fun (e : Graph.edge) -> List.mem e.Graph.src g && List.mem e.Graph.dst g)
    (Graph.edges graph)

let plan_of plans name = List.find (fun p -> p.compute = name) plans

(* Decide what to do with one user fusion group after the per-node plans
   are known: keep as specified, or distribute + transform + re-fuse
   (Fig. 10's split-interchange-merge). *)
let fuse_group func graph plans g =
  let member_plans = List.map (plan_of plans) g in
  let untouched =
    List.for_all (fun p -> p.final_order = Compute.iter_names (Func.find_compute func p.compute)) member_plans
  in
  if untouched then (user_fusion_directives func g, false)
  else if has_cross_edges graph g then
    (* cannot distribute; drop the per-node transforms for this group and
       keep the user's structure *)
    (user_fusion_directives func g, false)
  else
    (* independent members: distribute, transform, then re-fuse
       position-wise at full depth when depths and extents line up *)
    let extents name =
      let c = Func.find_compute func name in
      let p = plan_of plans name in
      List.map
        (fun d ->
          Var.extent (List.find (fun (v : Var.t) -> v.Var.name = d || v.Var.name ^ "s" = d) c.Compute.iters))
        p.final_order
    in
    match g with
    | first :: rest ->
        let skew_free = List.for_all (fun p -> not p.skewed) member_plans in
        let e0 = extents first in
        if
          skew_free
          && List.for_all (fun n -> extents n = e0) rest
        then
          ( List.map
              (fun c -> Schedule.fuse first c ~level:(List.length e0))
              rest,
            true )
        else ([], true)
    | [] -> ([], false)

let run func =
  let graph = Graph.build func in
  let planned = List.map plan_node (Graph.nodes graph) in
  let plans = List.map snd planned in
  let groups = user_fusion_groups func in
  (* Nodes in groups that cannot be distributed keep their original order:
     filter their transform directives out. *)
  let grouped_decisions = List.map (fuse_group func graph plans) groups in
  let frozen =
    List.concat
      (List.map2
         (fun g (_, distributed) ->
           if (not distributed) && has_cross_edges graph g then g else [])
         groups grouped_decisions)
  in
  let node_directives =
    List.concat_map
      (fun (ds, p) -> if List.mem p.compute frozen then [] else ds)
      planned
  in
  let fusion_directives = List.concat_map fst grouped_decisions in
  let transformed = node_directives <> [] in
  let refused = List.exists snd grouped_decisions in
  let iterations =
    1 + (if transformed then 1 else 0) + if refused then 1 else 0
  in
  {
    directives = node_directives @ fusion_directives;
    nodes =
      List.map
        (fun p ->
          if List.mem p.compute frozen then
            {
              p with
              final_order = Compute.iter_names (Func.find_compute func p.compute);
              skewed = false;
            }
          else p)
        plans;
    iterations;
    paths = Graph.data_paths graph;
  }
