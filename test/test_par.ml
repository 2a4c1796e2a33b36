(* The parallel-execution subsystem: the fixed-size domain pool (result
   ordering, exception propagation, nested-use rejection) and the
   domain-safe report memo under concurrent requests. *)

module Par = Pom.Par
module Pool = Pom.Par.Pool
module Memo = Pom.Pipeline.Memo
module Polybench = Pom.Workloads.Polybench

(* -------- the domain pool -------- *)

let test_map_ordering () =
  Pool.with_pool 4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "results follow input order" (List.map (fun x -> x * x) xs)
        (Pool.parallel_map pool (fun x -> x * x) xs))

let test_map_empty_and_singleton () =
  Pool.with_pool 4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.parallel_map pool succ []);
      Alcotest.(check (list int))
        "singleton" [ 8 ]
        (Pool.parallel_map pool succ [ 7 ]))

let test_size_one_pool_is_sequential () =
  Pool.with_pool 1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      Alcotest.(check (list int))
        "maps in order" [ 2; 4; 6 ]
        (Pool.parallel_map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_exception_propagation () =
  Pool.with_pool 4 (fun pool ->
      Alcotest.check_raises "the task's exception surfaces"
        (Failure "boom at 37") (fun () ->
          ignore
            (Pool.parallel_map pool
               (fun x -> if x = 37 then failwith "boom at 37" else x)
               (List.init 100 Fun.id))))

let test_nested_use_rejected () =
  Pool.with_pool 4 (fun pool ->
      let saw_rejection =
        Pool.parallel_map pool
          (fun () ->
            match Pool.parallel_map pool succ [ 1 ] with
            | _ -> false
            | exception Invalid_argument _ -> true)
          [ (); (); () ]
      in
      Alcotest.(check (list bool))
        "every nested submission is rejected" [ true; true; true ]
        saw_rejection)

let test_filter_map_ordering () =
  Pool.with_pool 4 (fun pool ->
      Alcotest.(check (list int))
        "kept results follow input order"
        [ 0; 4; 16; 36; 64 ]
        (Pool.parallel_filter_map pool
           (fun x -> if x mod 2 = 0 then Some (x * x) else None)
           (List.init 10 Fun.id)))

let test_par_facade_budget () =
  Par.with_jobs 3 (fun () ->
      Alcotest.(check int) "with_jobs sets the budget" 3 (Par.jobs ());
      Alcotest.(check (list int))
        "Par.map respects ordering" [ 1; 4; 9 ]
        (Par.map (fun x -> x * x) [ 1; 2; 3 ]));
  Par.with_jobs 1 (fun () ->
      Alcotest.(check (list int))
        "sequential path" [ 1; 4; 9 ]
        (Par.map (fun x -> x * x) [ 1; 2; 3 ]))

(* -------- the memo under concurrent requests -------- *)

let test_memo_single_miss_under_concurrency () =
  (* four domains ask for the same uncached design point at once: the
     in-flight claim must serialize them into one synthesis (one miss) and
     three waiters that count as hits and share the winner's result *)
  let cache = Memo.create () in
  let func = Polybench.gemm 32 in
  let thunk () = Pom.Polyir.Prog.of_func_unscheduled func in
  let device = Pom.Hls.Device.xc7z020 in
  let results =
    Pool.with_pool 4 (fun pool ->
        Pool.parallel_map pool
          (fun () -> Memo.synthesize cache ~device ~directives:[] func thunk)
          [ (); (); (); () ])
  in
  let c = Memo.counters cache in
  Alcotest.(check int) "one miss" 1 c.Memo.report_misses;
  Alcotest.(check int) "three hits" 3 c.Memo.report_hits;
  match results with
  | (p0, r0) :: rest ->
      Alcotest.(check bool) "all share one program" true
        (List.for_all (fun (p, _) -> p == p0) rest);
      Alcotest.(check bool) "all share one report" true
        (List.for_all (fun (_, r) -> r == r0) rest)
  | [] -> Alcotest.fail "no results"

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "result ordering" `Quick test_map_ordering;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "size-1 pool" `Quick
            test_size_one_pool_is_sequential;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested use rejected" `Quick
            test_nested_use_rejected;
          Alcotest.test_case "filter_map ordering" `Quick
            test_filter_map_ordering;
          Alcotest.test_case "Par facade budget" `Quick test_par_facade_budget;
        ] );
      ( "memo",
        [
          Alcotest.test_case "single miss under concurrency" `Quick
            test_memo_single_miss_under_concurrency;
        ] );
    ]
