(* [main.exe compare RUNS_A RUNS_B]: the acceptance rule over two sets of
   result files, A the parent commit and B the change.  Runs pair up in
   start order per workload; each end-to-end metric gets a verdict against
   its bound in BENCHMARK.json, and a workload whose change side failed
   more requests, or produced more wrong designs, than the parent
   regressed whatever its timings say. *)

type run = {
  workload : string;
  started : float;
  correct : bool;
  failed : int;
  metrics : (string * float) list;
}

(* An untraced run file as main.exe writes it; traced runs carry per-layer
   metrics and are skipped. *)
let of_json j =
  if Json.member "trace" j <> Json.Num 0.0 then None
  else
    let result = Json.member "result" j in
    let value (k, v) = (k, Json.to_num (Json.member "value" v)) in
    Some
      {
        workload = Json.to_str (Json.member "workload" j);
        started = Json.to_num (Json.member "started" j);
        correct = Json.member "correct" result = Json.Bool true;
        failed = Float.to_int (Json.to_num (Json.member "failed" result));
        metrics =
          (match Json.member "metrics" result with
          | Json.Obj kvs -> List.map value kvs
          | _ -> []);
      }

let load dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f -> of_json (Json.of_file (Filename.concat dir f)))

type metric = { name : string; better : Stats.better; bound : float }

(* Set-up takes a few milliseconds on the cold workloads, where a share of
   it is below what a shared host resolves: set-up regresses only by more
   than this many seconds as well. *)
let setup_floor_s = 0.05

let floor m = if m.name = "setup_s" then setup_floor_s else 0.0

type workload = {
  name : string;
  pairs : int;
  a_first : int;  (** pairs in which the parent's run started first *)
  failed : int * int;  (** requests failed over the paired runs, A and B *)
  incorrect : int * int;  (** paired runs with a wrong design, A and B *)
  rows : (metric * Stats.comparison) list;  (** empty below two pairs *)
  regressed : bool;
}

let judge ~(metrics : metric list) name (ra : run list) (rb : run list) =
  let pairs = min (List.length ra) (List.length rb) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let ra = take ra and rb = take rb in
  let total f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let both f = (total f ra, total f rb) in
  let failed = both (fun (r : run) -> r.failed) in
  let incorrect = both (fun (r : run) -> if r.correct then 0 else 1) in
  let rows =
    if pairs < 2 then []
    else
      List.map
        (fun (m : metric) ->
          let values rs = List.map (fun r -> List.assoc m.name r.metrics) rs in
          ( m,
            Stats.compare_runs ~floor:(floor m) ~better:m.better ~bound:m.bound
              ~base:(values ra) ~change:(values rb) () ))
        metrics
  in
  let worse (a, b) = b > a in
  {
    name;
    pairs;
    a_first =
      List.fold_left2 (fun k x y -> if x.started < y.started then k + 1 else k) 0 ra rb;
    failed;
    incorrect;
    rows;
    regressed =
      worse failed || worse incorrect
      || List.exists (fun (_, c) -> c.Stats.verdict = Stats.Regressed) rows;
  }

let judge_all ~workloads ~metrics a b =
  let side runs w =
    List.filter (fun r -> r.workload = w) runs
    |> List.sort (fun x y -> Float.compare x.started y.started)
  in
  List.map (fun w -> judge ~metrics w (side a w) (side b w)) workloads

let print w =
  let verdict c = Stats.verdict_to_string c.Stats.verdict in
  let q3 (a, b, c) = Printf.sprintf "%.4g [%.4g..%.4g]" b a c in
  let fa, fb = w.failed and ia, ib = w.incorrect in
  Printf.printf "%-12s  %d pairs (A first in %d%s)  failed A %d B %d  wrong A %d B %d%s  %s\n"
    w.name w.pairs w.a_first
    (if abs ((2 * w.a_first) - w.pairs) > 1 then ", not alternating" else "")
    fa fb ia ib
    (if w.regressed then "  REGRESSED" else "")
    (if w.rows = [] then "too few pairs to compare"
     else
       String.concat "  "
         (List.map (fun ((m : metric), c) -> m.name ^ "=" ^ verdict c) w.rows));
  List.iter
    (fun ((m : metric), c) ->
      Printf.printf "    %-22s A %s  B %s  B won %d/%d  bound %.0f%%  -> %s\n" m.name
        (q3 c.Stats.base_q) (q3 c.Stats.change_q) c.Stats.wins c.Stats.pairs
        (100.0 *. m.bound) (verdict c))
    w.rows

(* Prints one row per workload; returns whether any workload regressed. *)
let run ~workloads ~metrics dir_a dir_b =
  let results = judge_all ~workloads ~metrics (load dir_a) (load dir_b) in
  List.iter print results;
  List.exists (fun w -> w.regressed) results
