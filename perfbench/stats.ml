(* Order statistics, the acceptance rule, and the seeded generators behind
   every workload.  Pure code with no dependency on the compiler, so the
   tests in test/ pin it directly. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let pos = p *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs

(* The Harrell-Davis estimate of the p-quantile: the mean of all order
   statistics, each weighted by the mass its rank interval [(i-1)/n, i/n]
   has under Beta(p (n+1), (1-p) (n+1)), the distribution of the
   p-quantile's rank.  Where one order statistic would rest on the few
   samples of one input, it averages the samples near the quantile. *)
let harrell_davis p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.harrell_davis: no samples";
  let nf = float_of_int n in
  let alpha = p *. (nf +. 1.0) and beta = (1.0 -. p) *. (nf +. 1.0) in
  (* midpoint rule, [steps] points per rank interval, in logs against
     underflow *)
  let steps = 32 in
  let m = n * steps in
  let logpdf =
    Array.init m (fun j ->
        let x = (float_of_int j +. 0.5) /. float_of_int m in
        ((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x)))
  in
  let top = Array.fold_left Float.max Float.neg_infinity logpdf in
  let w = Array.make n 0.0 in
  Array.iteri (fun j l -> w.(j / steps) <- w.(j / steps) +. exp (l -. top)) logpdf;
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (w.(i) *. x)) a;
  !acc /. total

(* A tail percentile is trustworthy only when at least ten samples lie
   beyond it: p90 needs 100 samples, p99 needs 1000. *)
let tail_percentile p xs =
  let beyond = float_of_int (List.length xs) *. (1.0 -. p) in
  if beyond +. 1e-9 >= 10.0 then Some (percentile p xs) else None

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so a verdict's quartiles match those computed from the
   printed results with the standard library. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)


let geomean xs =
  if xs = [] then invalid_arg "Stats.geomean: no samples";
  if List.exists (fun x -> not (x > 0.0)) xs then
    invalid_arg "Stats.geomean: samples must be positive";
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
    /. float_of_int (List.length xs))

let mean xs =
  if xs = [] then 0.0
  else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ---- seeded generators ---- *)

(* One stream per (seed, salt): the same seed always yields the same
   inputs, and independent streams of one run never share state. *)
let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Zipf(s) over ranks [0, n): P(k) is proportional to 1 / (k + 1)^s.
   The sampler is the cumulative distribution. *)
type zipf = float array

let zipf ~s n : zipf =
  if n < 1 then invalid_arg "Stats.zipf: empty support";
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* The rank whose cumulative mass first exceeds [u], for [u] in [0, 1). *)
let zipf_rank (cdf : zipf) u =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) > u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

(* Stratified uniforms: one draw from each of the [n] equal strata of
   [0, 1), in seeded order.  A block of them samples any distribution with
   frequencies exact to one draw per stratum, where independent draws would
   scatter by the square root of the count. *)
let stratified st n =
  let draw j = (float_of_int j +. Random.State.float st 1.0) /. float_of_int n in
  shuffle st (List.init n draw)

(* One block of a request stream: [n] (rank, bypass) pairs, where exactly
   one request in each group of [bypass_every] bypasses the cache, at a
   seeded position.  Cached and bypassing requests draw their ranks from
   separate stratified blocks, so a rank whose mass spans two strata of the
   cached block — mass at least 2 / (n - n / bypass_every) — is requested
   at least once with the cache on, whatever the seed. *)
let request_block st ~(cdf : zipf) ~n ~bypass_every =
  if n mod bypass_every <> 0 then
    invalid_arg "Stats.request_block: n is not a whole number of groups";
  let groups = n / bypass_every in
  let bypass =
    List.concat
      (List.init groups (fun _ -> shuffle st (List.init bypass_every (fun j -> j = 0))))
  in
  let cached = ref (stratified st (n - groups)) and bypassed = ref (stratified st groups) in
  let pop q =
    match !q with
    | u :: rest ->
        q := rest;
        zipf_rank cdf u
    | [] -> assert false
  in
  List.map (fun b -> (pop (if b then bypassed else cached), b)) bypass

(* ---- the acceptance rule ---- *)

type better = Lower | Higher

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type comparison = {
  pairs : int;
  wins : int;  (** pairs the change won; ties count for neither side *)
  base_q : float * float * float;
  change_q : float * float * float;
  verdict : verdict;
}

let min_pairs = 10

(* [base] (the parent) and [change] are paired runs: element i of each was
   measured back to back.  The change improved a metric when it wins at
   least nine tenths of the pairs and its median moves past the parent's
   own interquartile distance.  It regressed when its median is worse than
   the parent's by more than the tolerance: [bound] times the parent's
   median, or [floor] in the metric's unit if that is larger.  An
   interquartile distance wider than the tolerance on either side leaves
   the metric unresolved, unless every run of the change reads better than
   every run of the parent. *)
let compare_runs ?(floor = 0.0) ~better ~bound ~base ~change () =
  let pairs = List.length base in
  if pairs <> List.length change then
    invalid_arg "Stats.compare_runs: unpaired samples";
  if pairs < 2 then invalid_arg "Stats.compare_runs: need at least two pairs";
  let is_better x y = match better with Lower -> x < y | Higher -> x > y in
  let wins =
    List.fold_left2
      (fun acc a b -> if is_better b a then acc + 1 else acc)
      0 base change
  in
  let ((a1, ma, a3) as base_q) = quartiles base in
  let ((b1, mb, b3) as change_q) = quartiles change in
  let all_better =
    List.for_all (fun b -> List.for_all (fun a -> is_better b a) base) change
  in
  let gain =
    10 * wins >= 9 * pairs && is_better mb ma && Float.abs (mb -. ma) > a3 -. a1
  in
  let tolerance median = Float.max (bound *. Float.abs median) floor in
  let worse = match better with Lower -> mb -. ma | Higher -> ma -. mb in
  let wide = a3 -. a1 > tolerance ma || b3 -. b1 > tolerance mb in
  let verdict =
    if pairs < min_pairs then Unresolved
    else if wide && not all_better then Unresolved
    else if gain then Improved
    else if worse > tolerance ma then Regressed
    else Unchanged
  in
  { pairs; wins; base_q; change_q; verdict }
