(* The benchmark's statistics: the percentile rule, geometric mean and
   quartiles, the verdict rule on hand-made samples, and the seeded
   generators. *)

open Perfstats

let close = Alcotest.float 1e-9

let check_true name b = Alcotest.(check bool) name true b

let ten_to n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.check close "median of odd count" 3.0
    (Stats.median [ 5.0; 1.0; 3.0; 2.0; 4.0 ]);
  Alcotest.check close "median of even count" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "p90 interpolates" 9.1 (Stats.percentile 0.9 (ten_to 10));
  Alcotest.check close "p0 is the minimum" 1.0 (Stats.percentile 0.0 (ten_to 10));
  Alcotest.check close "p100 is the maximum" 10.0 (Stats.percentile 1.0 (ten_to 10));
  (* over 16 inputs, p50 and p90 each average two neighbours *)
  Alcotest.check close "p50 of 16" 8.5 (Stats.percentile 0.5 (ten_to 16));
  Alcotest.check close "p90 of 16" 14.5 (Stats.percentile 0.9 (ten_to 16))

let test_harrell_davis () =
  let hd = Stats.harrell_davis in
  (* the weights are symmetric about the middle for p = 0.5 *)
  Alcotest.check (Alcotest.float 1e-6) "symmetric sample: the median" 5.5 (hd 0.5 (ten_to 10));
  Alcotest.check close "one sample" 7.0 (hd 0.5 [ 7.0 ]);
  Alcotest.check (Alcotest.float 1e-6) "constant sample" 3.0 (hd 0.5 (List.init 9 (fun _ -> 3.0)));
  (* one outlier moves it far less than it moves the mean *)
  let xs = List.init 20 (fun i -> float_of_int (i + 1)) in
  let skewed = 1000.0 :: List.tl (List.rev xs) in
  check_true "robust to one outlier" (hd 0.5 skewed -. hd 0.5 xs < 1.0);
  check_true "p90 above p50" (hd 0.9 xs > hd 0.5 xs);
  (* three inputs of five samples each, the middle one noisy: it averages
     the neighbours' samples as well *)
  let group c = List.init 5 (fun i -> c +. float_of_int (i - 2)) in
  let pooled = group 10.0 @ group 20.0 @ group 30.0 in
  check_true "between the neighbours" (let m = hd 0.5 pooled in m > 15.0 && m < 25.0)

let test_tail_rule () =
  (* p90 needs ten samples beyond it: 100 samples, not 99 *)
  let tail p n = Stats.tail_percentile p (ten_to n) in
  check_true "p90 of 99 omitted" (tail 0.9 99 = None);
  check_true "p90 of 100 reported" (tail 0.9 100 <> None);
  check_true "p99 of 999 omitted" (tail 0.99 999 = None);
  check_true "p99 of 1000 reported" (tail 0.99 1000 <> None);
  check_true "p50 of 20 reported" (tail 0.5 20 <> None)

let test_geomean () =
  Alcotest.check close "geomean 1,4,16" 4.0 (Stats.geomean [ 1.0; 4.0; 16.0 ]);
  Alcotest.check close "geomean of one" 7.0 (Stats.geomean [ 7.0 ]);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Stats.geomean: samples must be positive") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9)) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25) (Stats.quartiles (ten_to 10));
  Alcotest.check q "1..4" (1.25, 2.5, 3.75) (Stats.quartiles (ten_to 4));
  Alcotest.check q "two samples extrapolate" (0.75, 1.5, 2.25)
    (Stats.quartiles [ 2.0; 1.0 ]);
  Alcotest.check q "unsorted input" (2.75, 5.5, 8.25)
    (Stats.quartiles [ 10.; 3.; 7.; 1.; 9.; 2.; 8.; 4.; 6.; 5. ])

let around base deltas = List.map (fun d -> base +. d) deltas

(* ten runs each, the parent near 100 with a quartile distance of about 1 *)
let parent = around 100.0 [ -1.0; 0.5; -0.5; 1.0; 0.0; -0.2; 0.3; -0.8; 0.8; 0.1 ]

let verdict ?(better = Stats.Lower) ?(bound = 0.1) ?floor ?(base = parent) change =
  (Stats.compare_runs ?floor ~better ~bound ~base ~change ()).Stats.verdict

let check_verdict name want got =
  Alcotest.(check string)
    name (Stats.verdict_to_string want) (Stats.verdict_to_string got)

let test_verdicts () =
  check_verdict "5% faster every pair" Stats.Improved
    (verdict (List.map (fun x -> x -. 5.0) parent));
  check_verdict "same runs" Stats.Unchanged (verdict parent);
  check_verdict "5% slower within a 10% bound" Stats.Unchanged
    (verdict (List.map (fun x -> x +. 5.0) parent));
  check_verdict "20% slower" Stats.Regressed
    (verdict (List.map (fun x -> x +. 20.0) parent));
  check_verdict "higher is better: 20% lower" Stats.Regressed
    (verdict ~better:Stats.Higher (List.map (fun x -> x -. 20.0) parent));
  check_verdict "higher is better: 5% higher" Stats.Improved
    (verdict ~better:Stats.Higher (List.map (fun x -> x +. 5.0) parent));
  (* wins 8 of 10 pairs: short of nine tenths *)
  check_verdict "8 of 10 wins is no gain" Stats.Unchanged
    (verdict (List.mapi (fun i x -> if i < 2 then x +. 0.5 else x -. 5.0) parent));
  (* a faster median that stays inside the parent's own spread *)
  check_verdict "gain inside the spread" Stats.Unchanged
    (verdict (List.map (fun x -> x -. 0.5) parent));
  let noisy = around 100.0 [ -30.; 20.; -25.; 30.; 0.; -20.; 25.; -15.; 15.; 5. ] in
  check_verdict "spread wider than the bound" Stats.Unresolved (verdict noisy);
  check_verdict "wide spread but every run better" Stats.Improved
    (verdict (List.map (fun x -> x -. 60.0) noisy |> List.map (fun x -> x *. 0.5)));
  let three = [ 1.; 2.; 3. ] and faster = [ 0.1; 0.2; 0.3 ] in
  check_verdict "fewer than ten pairs" Stats.Unresolved
    (verdict ~base:three faster);
  (* a bound of 0 demands the exact value of a deterministic metric *)
  let exact = List.init 10 (fun _ -> 250.0) in
  check_verdict "exact: same value" Stats.Unchanged (verdict ~bound:0.0 ~base:exact exact);
  check_verdict "exact: a hair worse" Stats.Regressed
    (verdict ~better:Stats.Higher ~bound:0.0 ~base:exact (List.map (fun x -> x -. 1e-6) exact));
  (* set-up of a few milliseconds: +50% is 1 ms, under a 5 ms floor *)
  let setup = around 0.002 [ 0.; 1e-5; -1e-5; 2e-5; -2e-5; 0.; 1e-5; -1e-5; 0.; 0. ] in
  let slower = List.map (fun x -> x *. 1.5) setup in
  check_verdict "setup +50% without a floor" Stats.Regressed (verdict ~bound:0.2 ~base:setup slower);
  check_verdict "setup +50% within the floor" Stats.Unchanged
    (verdict ~bound:0.2 ~floor:0.005 ~base:setup slower);
  check_verdict "setup +5 ms beyond the floor" Stats.Regressed
    (verdict ~bound:0.2 ~floor:0.005 ~base:setup (List.map (fun x -> x +. 0.006) setup))

let draws seed =
  let cdf = Stats.zipf ~s:1.1 48 in
  let st = Stats.rng ~seed ~salt:0 in
  let block () = List.map (Stats.zipf_rank cdf) (Stats.stratified st 250) in
  List.concat (List.init 2 (fun _ -> block ()))

let order seed = Stats.shuffle (Stats.rng ~seed ~salt:3) (List.init 10 Fun.id)

let test_generators () =
  Alcotest.(check (list int)) "zipf: same seed, same draws" (draws 7) (draws 7);
  check_true "zipf: another seed, other draws" (draws 7 <> draws 8);
  Alcotest.(check (list int)) "shuffle: same seed, same order" (order 7) (order 7);
  check_true "shuffle: another seed, another order" (order 7 <> order 8);
  Alcotest.(check (list int)) "shuffle is a permutation" (List.init 10 Fun.id)
    (List.sort compare (order 7));
  let d = draws 1 in
  check_true "zipf draws stay in range" (List.for_all (fun k -> k >= 0 && k < 48) d);
  let count k = List.length (List.filter (( = ) k) d) in
  check_true "rank 0 is the most popular" (count 0 > count 1 && count 1 > count 10);
  (* stratified: a rank's count is off its expectation only through the two
     strata its mass only partly covers, so by less than two per block of
     250 draws, whatever the seed (independent draws of rank 0 would
     scatter by about 10) *)
  let cdf = Stats.zipf ~s:1.1 48 in
  List.iter
    (fun seed ->
      let d = draws seed in
      for k = 0 to 47 do
        let p = cdf.(k) -. if k = 0 then 0.0 else cdf.(k - 1) in
        let n = List.length (List.filter (( = ) k) d) in
        check_true
          (Printf.sprintf "seed %d rank %d: %d draws for p=%.4f" seed k n p)
          (Float.abs (float_of_int n -. (500.0 *. p)) < 4.0)
      done)
    [ 1; 2; 3 ]

(* serve-zipf's blocks: 600 requests, one bypass per ten, and every one of
   the 48 design points requested with the cache on, whatever the seed, so
   every block inserts every design *)
let test_request_block () =
  let cdf = Stats.zipf ~s:1.1 48 in
  let block seed salt =
    Stats.request_block (Stats.rng ~seed ~salt) ~cdf ~n:600 ~bypass_every:10
  in
  check_true "same seed, same block" (block 5 0 = block 5 0);
  check_true "another seed, another block" (block 5 0 <> block 6 0);
  check_true "another block of one run differs" (block 5 0 <> block 5 1);
  for seed = 1 to 40 do
    let b = block seed (seed mod 3) in
    Alcotest.(check int) "600 requests" 600 (List.length b);
    Alcotest.(check int) "60 bypass the cache" 60 (List.length (List.filter snd b));
    let cached = List.sort_uniq compare (List.filter_map (fun (k, by) -> if by then None else Some k) b) in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: every point requested with the cache on" seed)
      (List.init 48 Fun.id) cached
  done;
  Alcotest.check_raises "partial group rejected"
    (Invalid_argument "Stats.request_block: n is not a whole number of groups") (fun () ->
      ignore (Stats.request_block (Stats.rng ~seed:1 ~salt:0) ~cdf ~n:605 ~bypass_every:10))

(* ---- compare, on hand-made run files ---- *)

let run_file ~dir ~i ~started ?(correct = true) ?(failed = 0) latency =
  Json.to_file
    (Filename.concat dir (Printf.sprintf "serve-zipf-t0-s%d.json" i))
    (Json.Obj
       [
         ("workload", Json.Str "serve-zipf");
         ("seed", Json.Num (float_of_int i));
         ("trace", Json.Num 0.0);
         ("started", Json.Num started);
         ( "result",
           Json.Obj
             [
               ("correct", Json.Bool correct);
               ("attempted", Json.Num 600.0);
               ("failed", Json.Num (float_of_int failed));
               ( "metrics",
                 Json.Obj
                   [ ("latency_ms_p50", Json.Obj [ ("value", Json.Num latency); ("unit", Json.Str "ms") ]) ]
               );
             ] );
       ])

(* Ten alternating pairs; [change i] writes pair i's run of the change. *)
let compare_dirs name ~change =
  let a = Filename.temp_dir ("perfbench-" ^ name) "-a"
  and b = Filename.temp_dir ("perfbench-" ^ name) "-b" in
  List.iteri
    (fun i base ->
      let t = float_of_int (10 * i) in
      let a_first = i mod 2 = 0 in
      run_file ~dir:a ~i ~started:(if a_first then t else t +. 1.0) base;
      change ~dir:b ~i ~started:(if a_first then t +. 1.0 else t) base)
    parent;
  let metrics = [ { Compare.name = "latency_ms_p50"; better = Stats.Lower; bound = 0.1 } ] in
  let rows =
    Compare.judge_all ~workloads:[ "serve-zipf" ] ~metrics (Compare.load a) (Compare.load b)
  in
  List.iter
    (fun d ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    [ a; b ];
  match rows with [ w ] -> w | _ -> Alcotest.fail "one row per workload"

let test_compare () =
  let same = compare_dirs "same" ~change:(fun ~dir ~i ~started x -> run_file ~dir ~i ~started x) in
  Alcotest.(check int) "ten pairs" 10 same.Compare.pairs;
  Alcotest.(check int) "alternating" 5 same.Compare.a_first;
  check_true "same runs: no regression" (not same.Compare.regressed);
  (* faster, but one request of one run failed: a regression all the same *)
  let failing =
    compare_dirs "failing" ~change:(fun ~dir ~i ~started x ->
        run_file ~dir ~i ~started ~correct:(i <> 3) ~failed:(if i = 3 then 1 else 0) (x -. 5.0))
  in
  check_verdict "latency improved" Stats.Improved
    (snd (List.hd failing.Compare.rows)).Stats.verdict;
  Alcotest.(check (pair int int)) "failures counted per side" (0, 1) failing.Compare.failed;
  check_true "more failures than the parent regress" failing.Compare.regressed;
  let wrong =
    compare_dirs "wrong" ~change:(fun ~dir ~i ~started x ->
        run_file ~dir ~i ~started ~correct:(i <> 7) x)
  in
  Alcotest.(check (pair int int)) "wrong designs counted per side" (0, 1) wrong.Compare.incorrect;
  check_true "a wrong design regresses" wrong.Compare.regressed;
  let slower =
    compare_dirs "slower" ~change:(fun ~dir ~i ~started x -> run_file ~dir ~i ~started (x +. 20.0))
  in
  check_true "20% slower regresses" slower.Compare.regressed

let test_json () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.0);
        ("b", Json.Arr [ Json.Str "x\"y\n"; Json.Bool true; Json.Null ]);
        ("c", Json.Num 0.1);
      ]
  in
  check_true "round trip" (Json.of_string (Json.to_string v) = v);
  Alcotest.(check string) "integers print bare" "1000" (Json.to_string (Json.Num 1000.0))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "Harrell-Davis median" `Quick test_harrell_davis;
          Alcotest.test_case "tail percentile needs ten beyond" `Quick test_tail_rule;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "verdict rule" `Quick test_verdicts;
          Alcotest.test_case "seeded generators" `Quick test_generators;
          Alcotest.test_case "serve request blocks" `Quick test_request_block;
          Alcotest.test_case "compare run files" `Quick test_compare;
          Alcotest.test_case "json round trip" `Quick test_json;
        ] );
    ]
