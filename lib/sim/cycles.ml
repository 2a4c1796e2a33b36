open Pom_poly
open Pom_dsl
open Pom_polyir

type bounds = {
  group : int;
  stmts : string list;
  instances : int;
  serial_bound : int;
  port_bound : int;
  chain_bound : int;
}

(* Mirror of {!Pom_hls.Summary.transformed_accesses}, kept local so the
   simulator stays independent of the QoR model it refutes. *)
let transformed_accesses (s : Stmt_poly.t) =
  let remap (a : Dep.access) =
    {
      a with
      Dep.indices = List.map (Linexpr.subst_all s.Stmt_poly.index_map) a.indices;
    }
  in
  ( remap (Compute.write_access s.Stmt_poly.compute),
    List.map remap (Compute.read_accesses s.Stmt_poly.compute) )

(* Domain re-tupled to schedule order, so enumerated coordinates line up
   with the loop nest the backend would emit. *)
let ordered_domain (s : Stmt_poly.t) =
  Basic_set.make
    (Sched.dims s.Stmt_poly.sched)
    (Basic_set.constraints s.Stmt_poly.domain)

type instance = {
  coords : int list;  (** schedule order *)
  serial : int list;  (** coords with unrolled dims collapsed *)
  written : (string * int list) list;
  read : (string * int list) list;
}

let enumerate_stmt ~cap (s : Stmt_poly.t) =
  let dims = Sched.dims s.Stmt_poly.sched in
  match Feasible.enumerate ~limit:(cap + 1) (ordered_domain s) with
  | exception Invalid_argument _ -> None
  | points when List.length points > cap -> None
  | points ->
      let unroll d =
        match List.assoc_opt d s.Stmt_poly.hw.Stmt_poly.unrolls with
        | Some f when f > 1 -> f
        | _ -> 1
      in
      (* Pipelining a level fully unrolls every level beneath it (Vitis
         semantics): those dimensions stop contributing serial steps. *)
      let pipeline_level =
        match s.Stmt_poly.hw.Stmt_poly.pipeline with
        | None -> None
        | Some (d, _) ->
            let rec find k = function
              | [] -> None
              | d' :: _ when String.equal d d' -> Some k
              | _ :: rest -> find (k + 1) rest
            in
            find 0 dims
      in
      let inside_pipeline k =
        match pipeline_level with Some l -> k > l | None -> false
      in
      (* Normalize each dimension to its observed minimum before collapsing
         by the unroll factor: hardware groups consecutive iterations from
         the loop's lower bound, so an unnormalized v/f could split one
         parallel batch into two serial steps and overstate the bound. *)
      let mins =
        match points with
        | [] -> List.map (fun _ -> 0) dims
        | p0 :: rest ->
            List.fold_left (fun acc p -> List.map2 min acc p) p0 rest
      in
      let factors = List.map unroll dims in
      let write, reads = transformed_accesses s in
      let eval_access env (a : Dep.access) =
        (a.Dep.array, List.map (Linexpr.eval env) a.Dep.indices)
      in
      let instance coords =
        let env d =
          let rec find ds vs =
            match (ds, vs) with
            | d' :: _, v :: _ when String.equal d d' -> v
            | _ :: ds, _ :: vs -> find ds vs
            | _ -> raise Not_found
          in
          find dims coords
        in
        let serial =
          List.mapi
            (fun k (v, (m, f)) -> if inside_pipeline k then 0 else (v - m) / f)
            (List.combine coords (List.combine mins factors))
        in
        {
          coords;
          serial;
          written = [ eval_access env write ];
          read = List.map (eval_access env) reads;
        }
      in
      Some (List.map instance points)

(* ---- serial bound ------------------------------------------------------ *)

(* Distinct serial steps: every step costs at least one cycle even under
   pipelining (any achieved II is >= 1). *)
let serial_bound instances =
  let seen = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace seen i.serial ()) instances;
  Hashtbl.length seen

(* ---- port bound -------------------------------------------------------- *)

(* Distinct elements the group must move through each bank's (at most) two
   ports.  Distinct — not per-instance — so perfect reuse/broadcast is
   conceded to the model; the bound is taken as the *min* over a cyclic and
   a block interpretation of the declared banking, so it stays sound
   whichever convention the model implements. *)

type mapping = Map_cyclic | Map_block

let bank_of ~mapping ~factors ~extents idx =
  let rec go fs es is acc =
    match (fs, es, is) with
    | [], _, _ | _, [], _ | _, _, [] -> acc
    | f :: fs, e :: es, i :: is ->
        let b =
          if f <= 1 then 0
          else
            match mapping with
            | Map_cyclic -> ((i mod f) + f) mod f
            | Map_block ->
                let chunk = max 1 ((e + f - 1) / f) in
                min (f - 1) (max 0 i / chunk)
        in
        go fs es is ((acc * f) + b)
  in
  go factors extents idx 0

let port_bound (prog : Prog.t) group_instances =
  let module SS = Set.Make (struct
    type t = string * int list

    let compare = compare
  end) in
  let reads, writes =
    List.fold_left
      (fun (r, w) i ->
        ( List.fold_left (fun r a -> SS.add a r) r i.read,
          List.fold_left (fun w a -> SS.add a w) w i.written ))
      (SS.empty, SS.empty) group_instances
  in
  (* Per-array observed index-space extents (for the block interpretation). *)
  let extents : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  let observe (array, idx) =
    match Hashtbl.find_opt extents array with
    | None -> Hashtbl.replace extents array (Array.of_list (List.map (fun i -> i + 1) idx))
    | Some e ->
        List.iteri (fun k i -> if k < Array.length e then e.(k) <- max e.(k) (i + 1)) idx
  in
  SS.iter observe reads;
  SS.iter observe writes;
  let bound_under mapping =
    let per_bank : (string * int, int) Hashtbl.t = Hashtbl.create 32 in
    let charge (array, idx) =
      let b =
        bank_of ~mapping
          ~factors:(Prog.partition_of prog array)
          ~extents:(Array.to_list (Hashtbl.find extents array))
          idx
      in
      let key = (array, b) in
      Hashtbl.replace per_bank key (1 + Option.value ~default:0 (Hashtbl.find_opt per_bank key))
    in
    SS.iter charge reads;
    SS.iter charge writes;
    Hashtbl.fold (fun _ ops acc -> max acc ((ops + 1) / 2)) per_bank 0
  in
  min (bound_under Map_cyclic) (bound_under Map_block)

(* ---- chain bound ------------------------------------------------------- *)

(* Longest same-element dependence chain (RAW/WAR/WAW) through one
   statement's instances, walked in lexicographic (schedule) order; edges
   between instances of the same serial step are skipped — those are
   parallel unroll copies.  One cycle per link is the floor; the model may
   legitimately do better only through transforms the backend cannot see,
   so violations are advisory (precision), not refutations. *)
let chain_bound_stmt instances =
  let last_write : (string * int list, int list * int) Hashtbl.t =
    Hashtbl.create 64
  in
  let last_access : (string * int list, int list * int) Hashtbl.t =
    Hashtbl.create 64
  in
  let longest = ref 0 in
  List.iter
    (fun i ->
      let pred tbl el =
        match Hashtbl.find_opt tbl el with
        | Some (serial, depth) when serial <> i.serial -> depth
        | _ -> 0
      in
      let depth =
        1
        + List.fold_left
            (fun acc el -> max acc (pred last_write el))
            (List.fold_left
               (fun acc el -> max acc (pred last_access el))
               0 i.written)
            (i.read @ i.written)
      in
      List.iter
        (fun el ->
          Hashtbl.replace last_write el (i.serial, depth);
          Hashtbl.replace last_access el (i.serial, depth))
        i.written;
      List.iter
        (fun el ->
          match Hashtbl.find_opt last_access el with
          | Some (_, d) when d >= depth -> ()
          | _ -> Hashtbl.replace last_access el (i.serial, depth))
        i.read;
      if depth > !longest then longest := depth)
    instances;
  !longest

(* ---- driver ------------------------------------------------------------ *)

let default_cap = 4096

let of_prog ?(cap = default_cap) (prog : Prog.t) =
  let stmts =
    List.map
      (fun (s : Stmt_poly.t) -> (Sched.const_at s.Stmt_poly.sched 0, s))
      prog.Prog.stmts
  in
  let groups =
    List.sort_uniq compare (List.map fst stmts)
  in
  let enumerated =
    List.map (fun (g, s) -> (g, s, enumerate_stmt ~cap s)) stmts
  in
  if List.exists (fun (_, _, e) -> e = None) enumerated then None
  else
    Some
      (List.map
         (fun g ->
           let members =
             List.filter_map
               (fun (g', s, e) ->
                 if g' = g then Some (s, Option.get e) else None)
               enumerated
           in
           let all = List.concat_map snd members in
           {
             group = g;
             stmts =
               List.map (fun ((s : Stmt_poly.t), _) -> Stmt_poly.name s) members;
             instances = List.length all;
             (* fused statements may run in parallel: a group is only
                pinned down by its widest member *)
             serial_bound =
               List.fold_left
                 (fun acc (_, is) -> max acc (serial_bound is))
                 0 members;
             port_bound = port_bound prog all;
             chain_bound =
               List.fold_left
                 (fun acc (_, is) -> max acc (chain_bound_stmt is))
                 0 members;
           })
         groups)

let pp ppf b =
  Format.fprintf ppf
    "@[group %d (%s): %d instances, serial >= %d, ports >= %d, chain >= %d@]"
    b.group
    (String.concat ", " b.stmts)
    b.instances b.serial_bound b.port_bound b.chain_bound
