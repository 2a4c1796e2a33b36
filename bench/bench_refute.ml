(* Refutation-engine throughput: cases/second per oracle family at a fixed
   seed, plus corpus replay latency.  Results go to BENCH_refute.json for
   the CI smoke job — a throughput collapse means a generator or oracle
   regressed into pathological work (e.g. an enumeration that stopped
   respecting the case's bounding box). *)

module Engine = Pom_refute.Engine

let seed = 7

(* per-family case counts sized so the whole experiment stays in seconds:
   poly cases are microseconds, degrade cases each run thirteen compiles *)
let families =
  [ (`Poly, 5_000); (`Semantic, 500); (`Degrade, 50); (`Qor, 2_000) ]

let corpus_dir = "test/refute-corpus"

let run () =
  Util.section
    (Printf.sprintf "BENCH refute | oracle throughput, seed %d" seed);
  let rows =
    List.map
      (fun (family, cases) ->
        let s = Engine.run ~seed ~cases family in
        let rate =
          if s.Engine.elapsed_s > 0. then
            float_of_int s.Engine.cases /. s.Engine.elapsed_s
          else 0.
        in
        (Engine.family_name family, s, rate))
      families
  in
  let t0 = Unix.gettimeofday () in
  let replayed =
    if Sys.file_exists corpus_dir then Engine.replay corpus_dir else []
  in
  let replay_s = Unix.gettimeofday () -. t0 in
  let replay_regressions =
    List.length
      (List.filter (fun (_, _, v) -> Pom_refute.Oracle.is_fail v) replayed)
  in
  Util.print_table
    [ "family"; "cases"; "cases/s"; "skip"; "precision"; "counterexamples" ]
    (List.map
       (fun (name, s, rate) ->
         [
           name;
           string_of_int s.Engine.cases;
           Printf.sprintf "%.0f" rate;
           string_of_int s.Engine.skipped;
           string_of_int s.Engine.precision_misses;
           string_of_int (List.length s.Engine.findings);
         ])
       rows);
  Printf.printf "corpus replay: %d case(s) in %.3fs, %d regression(s)\n"
    (List.length replayed) replay_s replay_regressions;
  let oc = open_out "BENCH_refute.json" in
  Printf.fprintf oc "{\n  \"seed\": %d,\n  \"families\": [\n" seed;
  List.iteri
    (fun i (name, s, rate) ->
      Printf.fprintf oc
        "    { \"name\": %S, \"cases\": %d, \"elapsed_s\": %.6f, \
         \"cases_per_s\": %.1f, \"passed\": %d, \"skipped\": %d, \
         \"precision_misses\": %d, \"counterexamples\": %d }%s\n"
        name s.Engine.cases s.Engine.elapsed_s rate s.Engine.passed
        s.Engine.skipped s.Engine.precision_misses
        (List.length s.Engine.findings)
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc
    "  ],\n\
    \  \"corpus\": { \"cases\": %d, \"replay_s\": %.6f, \"regressions\": %d \
     }\n\
     }\n"
    (List.length replayed) replay_s replay_regressions;
  close_out oc;
  Printf.printf "\nwrote BENCH_refute.json\n";
  let findings =
    List.concat_map (fun (_, s, _) -> s.Engine.findings) rows
  in
  if findings <> [] || replay_regressions > 0 then begin
    Printf.eprintf
      "BENCH refute: counterexamples found — run bin/pom_refute to shrink \
       and save them\n";
    exit 1
  end
