type group_eval = {
  group : int;
  pipelined : bool;
  achieved_ii : int;
  latency : int;
  depth : int;
  phys_copies : (string * int) list;
}

let cdiv a b = (a + b - 1) / b

let stmt_name (p : Summary.t) = Pom_polyir.Stmt_poly.name p.Summary.stmt

(* Loop-control overhead per sequential iteration grows with nest depth. *)
let seq_iter_cost (p : Summary.t) =
  p.Summary.body.Opchar.crit_path + (2 * List.length p.Summary.loops)

(* Unrolling a level whose dimension carries a dependence yields a serial
   chain, not parallel copies. *)
let parallel_loops (p : Summary.t) =
  let carried k = List.exists (List.exists (fun (lvl, _) -> lvl = k)) in
  List.filteri (fun i _ -> not (carried (i + 1) p.Summary.deps)) p.Summary.loops

let effective_unroll p =
  List.fold_left (fun acc l -> acc * l.Summary.unroll) 1 (parallel_loops p)

(* Port operations accumulate per array; each array's operations move
   through dual-ported banks, and the busiest array decides. *)
let add_demand demand array cost =
  Hashtbl.replace demand array
    (cost +. Option.value ~default:0.0 (Hashtbl.find_opt demand array))

let port_cycles demand =
  Hashtbl.fold
    (fun _ cost acc -> max acc (int_of_float (Float.ceil (cost /. 2.0))))
    demand 1

let access_ports ~partitions ~loops (array, per_dim) =
  let copies d =
    match List.find_opt (fun (l : Summary.loop) -> l.Summary.dim = d) loops with
    | Some l -> l.Summary.unroll
    | None -> 1
  in
  let ops =
    List.fold_left
      (fun acc d -> acc * copies d)
      1
      (List.sort_uniq String.compare (List.concat per_dim))
  in
  let banks =
    List.fold_left
      (fun acc (k, f) ->
        match List.nth_opt per_dim k with
        | Some dims when f > 1 && List.exists (fun d -> copies d > 1) dims ->
            acc * f
        | _ -> acc)
      1
      (List.mapi (fun k f -> (k, f)) (partitions array))
  in
  (ops, banks)

(* Port pressure of one sequential step: the parallel copies of every
   access issue together, and each array's banks are dual-ported. *)
let step_ports ~partitions (p : Summary.t) =
  let loops = parallel_loops p in
  let demand = Hashtbl.create 8 in
  List.iter
    (fun ((array, _) as access) ->
      let ops, banks = access_ports ~partitions ~loops access in
      add_demand demand array (float_of_int ops /. float_of_int banks))
    p.Summary.access_dims;
  port_cycles demand

let sequential_stmt_latency ~partitions (p : Summary.t) =
  let u = max 1 (effective_unroll p) in
  Pom_dsl.Count.mul
    (cdiv p.Summary.total_points u)
    (max (seq_iter_cost p) (step_ports ~partitions p))

let sequential_latency ~partitions profiles =
  List.fold_left
    (fun acc p ->
      Pom_dsl.Count.add acc (sequential_stmt_latency ~partitions p))
    0 profiles

(* Per-statement quantities relative to the group's pipeline level [p]. *)
type pipe_view = {
  profile : Summary.t;
  level : int;  (* the group's pipeline level *)
  outer_trips : int;  (* product of extents strictly outside level p *)
  pipe_trips : int;  (* extent of level p *)
  body_points : int;  (* domain points per level-p iteration *)
  unrolled : int;  (* parallel copies inside the body *)
  serial : int;  (* body_points / unrolled, issued serially *)
}

let view_of ~level (p : Summary.t) =
  let loops = p.Summary.loops in
  let outer_trips =
    List.fold_left ( * ) 1
      (List.filteri (fun i _ -> i + 1 < level) loops
      |> List.map (fun l -> l.Summary.extent))
  in
  let pipe_trips = (List.nth loops (level - 1)).Summary.extent in
  let body_points =
    max 1 (p.Summary.total_points / max 1 (outer_trips * pipe_trips))
  in
  let unrolled =
    List.fold_left ( * ) 1
      (List.filteri (fun i _ -> i + 1 > level) loops
      |> List.map (fun l -> l.Summary.unroll))
  in
  let unrolled = max 1 (min unrolled body_points) in
  { profile = p; level; outer_trips; pipe_trips; body_points; unrolled;
    serial = cdiv body_points unrolled }

let arith_latency = Opchar.chain_arith_latency

(* Recurrence-limited II for one statement.

   A dependence carried at the pipeline level with distance d forces
   II >= chain/d, where the chain threads through any unrolled copies along
   inner dimensions the dependence also traverses.

   A dependence carried only at an inner level that is not fully unrolled
   serializes the body: the chain of e/u dependent links (each through u
   unrolled copies) must complete within one initiation interval. *)
let rec_mii ~level v =
  let p = v.profile in
  let arith = arith_latency p.Summary.body in
  let mem = Opchar.load.Opchar.latency + Opchar.store.Opchar.latency in
  List.fold_left
    (fun acc dep ->
      match List.assoc_opt level dep with
      | Some dist ->
          let chained_copies =
            List.fold_left
              (fun c (lvl, d) ->
                if lvl > level then
                  let l = List.nth p.Summary.loops (lvl - 1) in
                  c * max 1 (l.Summary.unroll / max 1 d)
                else c)
              1 dep
          in
          max acc (cdiv (mem + (arith * chained_copies)) dist)
      | None ->
          let serial_chain =
            List.fold_left
              (fun c (lvl, d) ->
                if lvl > level then
                  let l = List.nth p.Summary.loops (lvl - 1) in
                  if l.Summary.unroll < l.Summary.extent then
                    c * max 1 (l.Summary.extent / max 1 d)
                  else c
                else c)
              1 dep
          in
          if serial_chain > 1 then max acc (mem + (arith * serial_chain))
          else acc)
    1 p.Summary.deps

let recurrence_mii ~level p = rec_mii ~level (view_of ~level p)

(* Port pressure: each access instance generates one port operation per
   distinct address reached within a level-p iteration — the product of the
   inner extents of the dimensions its index actually reads (accesses not
   indexed by an inner dimension are broadcast).  Partitioning an array
   dimension multiplies the banks reachable only for accesses whose index
   varies along that dimension within the body; the per-array demand is the
   sum of each access's bank-normalized operations, served by dual ports. *)
let res_mii ~partitions views =
  let demand = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let loops = v.profile.Summary.loops in
      let inner_extent dim =
        let rec go k = function
          | [] -> None
          | (l : Summary.loop) :: rest ->
              if l.Summary.dim = dim then Some (k, l.Summary.extent)
              else go (k + 1) rest
        in
        go 1 loops
      in
      let varies dims =
        List.exists
          (fun d ->
            match inner_extent d with Some (k, _) -> k > v.level | None -> false)
          dims
      in
      List.iter
        (fun (array, per_dim) ->
          let n =
            let all_dims = List.sort_uniq String.compare (List.concat per_dim) in
            List.fold_left
              (fun acc d ->
                match inner_extent d with
                | Some (k, e) when k > v.level -> acc * e
                | _ -> acc)
              1 all_dims
          in
          let factors = partitions array in
          let banks =
            List.fold_left
              (fun acc (k, f) ->
                if f > 1 && varies (List.nth per_dim k) then acc * f else acc)
              1
              (List.mapi (fun k f -> (k, f)) factors)
          in
          add_demand demand array
            (float_of_int n /. float_of_int (max 1 banks)))
        v.profile.Summary.access_dims)
    views;
  port_cycles demand

(* Statements sharing the leading scalar constant are one fusion group, but
   they overlap in one pipeline only when their schedules agree on every
   scalar position before the pipelined level; statements sequenced by an
   inner scalar (e.g. the two ping-pong sweeps inside a shared time loop)
   run as consecutive pipelines whose latencies add.  A statement without a
   pipelined loop never joins a pipeline, even one at its own depth + 1. *)
let copipeline_key (p : Summary.t) =
  let level, pipelined =
    match Summary.pipeline_level p with
    | Some l -> (l, true)
    | None -> (List.length p.Summary.loops + 1, false)
  in
  let sched = p.Summary.stmt.Pom_polyir.Stmt_poly.sched in
  (level, List.init level (Pom_poly.Sched.const_at sched), pipelined)

let eval_subgroup ~partitions profiles =
  let group =
    match profiles with
    | p :: _ -> p.Summary.group
    | [] -> invalid_arg "Latency.eval_group: empty group"
  in
  let levels = List.filter_map Summary.pipeline_level profiles in
  match levels with
  | [] ->
      let latency = sequential_latency ~partitions profiles in
      {
        group;
        pipelined = false;
        achieved_ii = 1;
        latency;
        depth = 0;
        phys_copies =
          List.map
            (fun p ->
              (stmt_name p,
               List.fold_left (fun a l -> a * l.Summary.unroll) 1 p.Summary.loops))
            profiles;
      }
  | _ ->
      let level = List.fold_left min max_int levels in
      let views = List.map (view_of ~level) profiles in
      let target =
        List.fold_left
          (fun acc p ->
            match Summary.pipeline_level p with
            | Some l when l = level ->
                max acc (List.nth p.Summary.loops (l - 1)).Summary.target_ii
            | _ -> acc)
          1 profiles
      in
      let rec_bound =
        List.fold_left (fun acc v -> max acc (rec_mii ~level v)) 1 views
      in
      let serial_bound =
        List.fold_left (fun acc v -> max acc v.serial) 1 views
      in
      let res_bound = res_mii ~partitions views in
      let ii =
        List.fold_left max 1 [ target; rec_bound; serial_bound; res_bound ]
      in
      (* an iteration lasts at least as long as issuing its serial steps
         and its port operations takes *)
      let depth =
        max (max serial_bound res_bound)
          (4
          + List.fold_left
              (fun acc p -> max acc p.Summary.body.Opchar.crit_path)
              0 profiles)
      in
      let outer = List.fold_left (fun acc v -> max acc v.outer_trips) 1 views in
      let pipe_trips =
        List.fold_left (fun acc v -> max acc v.pipe_trips) 1 views
      in
      (* Perfect rectangular nests are flattened into a single pipeline
         (one fill/drain); non-rectangular (skewed) nests refill per outer
         iteration. *)
      let flattenable =
        List.for_all (fun v -> v.profile.Summary.rectangular) views
      in
      let latency =
        if flattenable then depth + ((outer * pipe_trips) - 1) * ii + 2
        else (outer * (depth + ((pipe_trips - 1) * ii))) + (2 * outer)
      in
      {
        group;
        pipelined = true;
        achieved_ii = ii;
        latency;
        depth;
        phys_copies =
          List.map
            (fun v -> (stmt_name v.profile, max 1 (cdiv v.body_points ii)))
            views;
      }

let eval_group ~partitions profiles =
  let keys =
    List.sort_uniq compare (List.map copipeline_key profiles)
  in
  let subs =
    List.map
      (fun key ->
        eval_subgroup ~partitions
          (List.filter (fun p -> copipeline_key p = key) profiles))
      keys
  in
  match subs with
  | [ one ] -> one
  | _ ->
      {
        group =
          (match profiles with
          | p :: _ -> p.Summary.group
          | [] -> invalid_arg "Latency.eval_group: empty group");
        pipelined = List.exists (fun e -> e.pipelined) subs;
        achieved_ii = List.fold_left (fun a e -> max a e.achieved_ii) 1 subs;
        latency = List.fold_left (fun a e -> a + e.latency) 0 subs;
        depth = List.fold_left (fun a e -> max a e.depth) 0 subs;
        phys_copies = List.concat_map (fun e -> e.phys_copies) subs;
      }

let eval_program ~partitions profiles =
  let groups =
    List.sort_uniq Int.compare (List.map (fun p -> p.Summary.group) profiles)
  in
  let evals =
    List.map
      (fun g ->
        eval_group ~partitions
          (List.filter (fun p -> p.Summary.group = g) profiles))
      groups
  in
  (evals, List.fold_left (fun acc e -> acc + e.latency) 0 evals)
