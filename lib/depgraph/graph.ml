open Pom_dsl

type edge_kind = Raw | War | Waw

type edge = { src : string; dst : string; array : string; kind : edge_kind }

type node = { compute : Compute.t; fine : Finegrain.t }

type t = { nodes : node list; edges : edge list }

(* One analysis per distinct dependence problem: same-shape computes
   (ResNet-18's 28 come in 12 shapes) share the first one's result.  The
   key holds the iterators and the write's indices, so the reduction
   dimensions are shared too; only the compute is a node's own. *)
let build func =
  let computes = Func.computes func in
  let analyzed = Hashtbl.create 16 in
  let fine c =
    let key = Finegrain.key c in
    match Hashtbl.find_opt analyzed key with
    | Some (f : Finegrain.t) -> { f with Finegrain.compute = c }
    | None ->
        let f = Finegrain.analyze c in
        Hashtbl.add analyzed key f;
        f
  in
  let nodes = List.map (fun c -> { compute = c; fine = fine c }) computes in
  let rec pairs = function
    | [] -> []
    | c :: rest -> List.map (fun c' -> (c, c')) rest @ pairs rest
  in
  let edges =
    List.concat_map
      (fun ((c1 : Compute.t), (c2 : Compute.t)) ->
        let w1 = Compute.array_written c1 and w2 = Compute.array_written c2 in
        let raw =
          if List.mem w1 (Compute.arrays_read c2) then
            [ { src = c1.name; dst = c2.name; array = w1; kind = Raw } ]
          else []
        in
        let war =
          if List.mem w2 (Compute.arrays_read c1) then
            [ { src = c1.name; dst = c2.name; array = w2; kind = War } ]
          else []
        in
        let waw =
          if w1 = w2 then
            [ { src = c1.name; dst = c2.name; array = w1; kind = Waw } ]
          else []
        in
        raw @ war @ waw)
      (pairs computes)
  in
  { nodes; edges }

let nodes t = t.nodes

let node t name =
  match
    List.find_opt (fun n -> n.compute.Compute.name = name) t.nodes
  with
  | Some n -> n
  | None -> invalid_arg ("Graph.node: unknown compute " ^ name)

let edges t = t.edges

let successors t name =
  List.filter_map
    (fun e -> if e.kind = Raw && e.src = name then Some e.dst else None)
    t.edges
  |> List.sort_uniq String.compare

let predecessors t name =
  List.filter_map
    (fun e -> if e.kind = Raw && e.dst = name then Some e.src else None)
    t.edges
  |> List.sort_uniq String.compare

let order t = List.map (fun n -> n.compute.Compute.name) t.nodes

let data_paths t =
  let sources =
    List.filter (fun n -> predecessors t n = []) (order t)
  in
  let rec extend path name =
    match successors t name with
    | [] -> [ List.rev (name :: path) ]
    | succs -> List.concat_map (extend (name :: path)) succs
  in
  List.concat_map (extend []) sources

let pp_kind ppf = function
  | Raw -> Format.pp_print_string ppf "RAW"
  | War -> Format.pp_print_string ppf "WAR"
  | Waw -> Format.pp_print_string ppf "WAW"

let pp ppf t =
  Format.fprintf ppf "@[<v>nodes: %s@,%a@]"
    (String.concat ", " (order t))
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf e ->
         Format.fprintf ppf "%s -%a(%s)-> %s" e.src pp_kind e.kind e.array
           e.dst))
    t.edges
