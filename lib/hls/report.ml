open Pom_polyir

type t = {
  latency : int;
  group_latencies : (int * int) list;
  iis : (int * int) list;
  usage : Resource.usage;
  power : float;
  feasible : bool;
  parallelism : float;
  unroll_products : (string * int) list;
}

let partition_fn (prog : Prog.t) array =
  match List.assoc_opt array prog.Prog.partitions with
  | Some (factors, _) -> factors
  | None -> []

type latency_mode = [ `Sequential | `Dataflow ]

(* Process-wide count of full (cold) syntheses, so callers layering a memo
   on top of [synthesize] can check that a cache hit really skipped the
   model evaluation.  An [Atomic] because the compile daemon's executor
   thread and another compiling thread of the process may both count. *)
let synth_counter = Atomic.make 0

let synth_count () = Atomic.get synth_counter

(* One fusion group's price: what the group contributes to a report,
   valid while the group has the same profiles and every array it touches
   the same partition factors. *)
type price = {
  profiles : Summary.t list;  (* the group's, program order *)
  arrays : (string * int) list;  (* Resource.arrays_of profiles *)
  factors : int list list;  (* each array's partition factors, priced at *)
  eval : Latency.group_eval;
  area : Resource.usage;  (* operators and on-chip buffers *)
}

(* group id -> its two newest prices, newest first *)
type prices = (int, price list) Hashtbl.t

let prices () : prices = Hashtbl.create 32

(* Two entries per group hold a search's incumbent and its candidate.
   Profiles are immutable and a unit keeps its profiles across a
   backed-out move, so physical equality identifies the same statements;
   the partition check catches a neighbour's unroll re-partitioning a
   shared array. *)
let group_price prices ~device ~partitions group profiles =
  let entries = Option.value ~default:[] (Hashtbl.find_opt prices group) in
  let valid e =
    List.compare_lengths e.profiles profiles = 0
    && List.for_all2 ( == ) e.profiles profiles
    && List.for_all2 (fun (a, _) f -> partitions a = f) e.arrays e.factors
  in
  match List.find_opt valid entries with
  | Some e -> e
  | None ->
      let arrays = Resource.arrays_of profiles in
      let eval = Latency.eval_group ~partitions profiles in
      let e =
        {
          profiles;
          arrays;
          factors = List.map (fun (a, _) -> partitions a) arrays;
          eval;
          area =
            {
              (Resource.group_usage profiles eval) with
              Resource.bram = Resource.group_bram ~device ~partitions arrays;
            };
        }
      in
      Hashtbl.replace prices group
        (match entries with [] -> [ e ] | x :: _ -> [ e; x ]);
      e

let of_profiles ?(prices = prices ()) ?(composition = Resource.Reuse)
    ?(latency_mode = `Sequential) ~device prog profiles =
  Atomic.incr synth_counter;
  let partitions = partition_fn prog in
  let priced =
    List.map
      (fun g ->
        group_price prices ~device ~partitions g
          (List.filter (fun p -> p.Summary.group = g) profiles))
      (List.sort_uniq Int.compare
         (List.map (fun p -> p.Summary.group) profiles))
  in
  let evals = List.map (fun g -> g.eval) priced in
  let latency = List.fold_left (fun acc e -> acc + e.Latency.latency) 0 evals in
  let latency =
    match latency_mode with
    | `Sequential -> latency
    | `Dataflow ->
        (* a task pipeline improves throughput, not single-input latency:
           stages still run one after another on one input, and unmatched
           producer/consumer paces add stalls (Section VII-E) *)
        latency * 5 / 4
  in
  let usage =
    Resource.combine ~composition ~partitions
      (List.map (fun g -> g.area) priced)
      (List.concat_map (fun g -> List.map fst g.arrays) priced)
  in
  let iis =
    List.filter_map
      (fun (e : Latency.group_eval) ->
        if e.Latency.pipelined then Some (e.Latency.group, e.Latency.achieved_ii)
        else None)
      evals
  in
  let unroll_products =
    List.map
      (fun (p : Summary.t) ->
        ( Stmt_poly.name p.Summary.stmt,
          List.fold_left (fun a l -> a * l.Summary.unroll) 1 p.Summary.loops ))
      profiles
  in
  let parallelism =
    List.fold_left
      (fun acc (p : Summary.t) ->
        let name = Stmt_poly.name p.Summary.stmt in
        let u = List.assoc name unroll_products in
        let ii =
          match
            List.find_opt
              (fun (e : Latency.group_eval) -> e.Latency.group = p.Summary.group)
              evals
          with
          | Some e -> e.Latency.achieved_ii
          | None -> 1
        in
        Float.max acc (float_of_int u /. float_of_int ii))
      0.0 profiles
  in
  {
    latency;
    group_latencies =
      List.map
        (fun (e : Latency.group_eval) -> (e.Latency.group, e.Latency.latency))
        evals;
    iis;
    usage;
    power = Resource.power usage;
    feasible = Resource.fits device usage;
    parallelism;
    unroll_products;
  }

let group_usage prices ~device prog profiles =
  let g =
    group_price prices ~device ~partitions:(partition_fn prog)
      (List.hd profiles).Summary.group profiles
  in
  { g.area with Resource.bram = 0 }

let synthesize ?composition ?latency_mode ~device prog =
  of_profiles ?composition ?latency_mode ~device prog (Summary.profile_all prog)

(* With no unrolled level and no partitioned array, the sequential
   latency reads no dependence: every statement costs the same whatever
   it carries, so the profiles skip the analysis. *)
let baseline_latency func =
  let prog = Prog.of_func_unscheduled func in
  Latency.sequential_latency ~partitions:(partition_fn prog)
    (List.map Summary.unanalyzed prog.Prog.stmts)

let speedup ~baseline t = float_of_int baseline /. float_of_int t.latency

let latency_ms (d : Device.t) t =
  float_of_int t.latency /. (d.Device.clock_mhz *. 1000.0)

let pp ppf t =
  Format.fprintf ppf
    "latency %d cycles, II [%s], %a, %.3f W, parallelism %.1f%s" t.latency
    (String.concat "; "
       (List.map (fun (g, ii) -> Printf.sprintf "g%d:%d" g ii) t.iis))
    Resource.pp t.usage t.power t.parallelism
    (if t.feasible then "" else " (INFEASIBLE)")
