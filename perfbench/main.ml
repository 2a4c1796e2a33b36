(* The benchmark of one pom_compile request, cold and served, attributed
   by layer.  Run from the repository root (see README.md):

     main.exe run --workload W --seed N --seconds T --trace 0|1
     main.exe benchmark --seed N [--seconds T] [--traced]
     main.exe compare RUNS_A RUNS_B

   BENCHMARK.json names the workloads and every metric with its unit,
   direction and bound; a run prints exactly the metrics it lists. *)

let out_dir = Filename.concat "perfbench" "out"

let runs_dir = Filename.concat out_dir "runs"

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds T --trace 0|1\n\
    \       main.exe benchmark --seed N [--seconds T] [--traced]\n\
    \       main.exe compare RUNS_A RUNS_B";
  exit 2

type metric = { name : string; unit_ : string; better : Stats.better; bound : float }

type spec = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
  run_seconds : int;
}

let spec () =
  let j = Json.of_file "BENCHMARK.json" in
  let list key = Json.to_list (Json.member key j) in
  let metric m =
    let s k = Json.to_str (Json.member k m) in
    {
      name = s "name";
      unit_ = s "unit";
      better =
        (match Stats.better_of_string (s "better") with
        | Some b -> b
        | None -> failwith ("BENCHMARK.json: bad direction for " ^ s "name"));
      bound = (match Json.member "bound" m with Json.Num b -> b | _ -> 0.0);
    }
  in
  {
    workloads = List.map (fun w -> Json.to_str (Json.member "name" w)) (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
    run_seconds = Float.to_int (Json.to_num (Json.member "run_seconds" j));
  }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* A layer a workload does not exercise, or cannot observe from outside
   the process that runs it, reads 0; speculation that never ran wasted
   nothing. *)
let idle_value name = if name = "par.useful_ratio" then 1.0 else 0.0

let write_trace ~workload ~spans ~values (r : Cold.result) =
  let file kind = Filename.concat out_dir (Printf.sprintf "%s-%s.json" kind workload) in
  Spans.write_trace spans (file "trace");
  let requests, self_times = Spans.layers spans in
  let per_request total = total *. 1000.0 /. float_of_int (max 1 requests) in
  let self_time (name, total, n) =
    Json.Obj
      [
        ("span", Json.Str name);
        ("spans", Json.Num (float_of_int n));
        ("self_ms_total", Json.Num (total *. 1000.0));
        ("self_ms_per_request", Json.Num (per_request total));
      ]
  in
  Json.to_file (file "layers")
    (Json.Obj
       ([
          ("workload", Json.Str workload);
          ("requests", Json.Num (float_of_int requests));
          ("self_time", Json.Arr (List.map self_time self_times));
          ("metrics", Json.Obj (List.map (fun (m, v) -> (m.name, Json.Num v)) values));
        ]
       @ match r.Cold.details with Json.Obj kvs -> kvs | _ -> []))

let run_workload ~workload ~seed ~seconds ~trace =
  let spec = spec () in
  if not (List.mem workload spec.workloads) then begin
    Printf.eprintf "unknown workload %s (known: %s)\n" workload
      (String.concat ", " spec.workloads);
    exit 2
  end;
  mkdir_p runs_dir;
  let golden = Golden.create () and spans = Spans.create () in
  let started = Unix.gettimeofday () in
  let seconds = float_of_int seconds in
  let cold inputs jobs = Cold.run ~inputs ~jobs ~seed ~seconds ~trace ~golden ~spans in
  let r =
    match workload with
    | "cold-pom" -> cold Inputs.tables 1
    | "cold-pom-j2" -> cold Inputs.tables 2
    | "dnn-large" -> cold Inputs.dnn 1
    | "serve-zipf" -> Serve.run ~seed ~seconds ~trace ~golden ~spans
    | w -> failwith ("no implementation for workload " ^ w)
  in
  let known name = List.exists (fun m -> m.name = name) (spec.end_to_end @ spec.per_layer) in
  List.iter
    (fun (name, _) ->
      if not (known name) then failwith ("metric missing from BENCHMARK.json: " ^ name))
    r.Cold.metrics;
  let value m =
    match List.assoc_opt m.name r.Cold.metrics with
    | Some v -> (m, v)
    | None when trace -> (m, idle_value m.name)
    | None -> failwith ("workload did not measure " ^ m.name)
  in
  let values =
    if r.Cold.metrics = [] then []
    else List.map value (if trace then spec.per_layer else spec.end_to_end)
  in
  if trace then write_trace ~workload ~spans ~values r;
  if Golden.blessing () then Golden.save golden;
  let mismatches = Golden.mismatches golden in
  List.iter (fun m -> prerr_endline ("golden: " ^ m)) mismatches;
  if r.Cold.failed > 0 then
    Printf.eprintf "%d of %d requests failed\n" r.Cold.failed r.Cold.attempted;
  (* a failed request is a wrong answer: no failure rate is acceptable *)
  let correct = r.Cold.failed = 0 && mismatches = [] && values <> [] in
  List.iter (fun (m, v) -> Printf.printf "%-36s %14.6g %s\n" m.name v m.unit_) values;
  if r.Cold.raw <> [] then begin
    Printf.printf
      "time metrics above are at the reference speed; the machine ran %.3fx slower:\n"
      r.Cold.slowdown;
    List.iter
      (fun (name, v) -> Printf.printf "  %-34s %14.6g as measured\n" name v)
      r.Cold.raw
  end;
  let entry (m, v) = (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]) in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int (max 1 r.Cold.attempted)));
        ("failed", Json.Num (float_of_int r.Cold.failed));
        ("metrics", Json.Obj (List.map entry values));
      ]
  in
  let trace_flag = Bool.to_int trace in
  Json.to_file
    (Filename.concat runs_dir
       (Printf.sprintf "%s-t%d-s%d-%d.json" workload trace_flag seed (Unix.getpid ())))
    (Json.Obj
       [
         ("workload", Json.Str workload);
         ("seed", Json.Num (float_of_int seed));
         ("trace", Json.Num (float_of_int trace_flag));
         ("started", Json.Num started);
         ("slowdown", Json.Num r.Cold.slowdown);
         ("raw", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.Cold.raw));
         ("details", if trace then Json.Null else r.Cold.details);
         ("result", result);
       ]);
  print_endline (Json.to_string result);
  exit (if correct then 0 else 1)

(* Run one workload in a subprocess, echoing its output; returns its
   result and whether it passed. *)
let run_child ~seed ~seconds w trace =
  Printf.printf "== %s (seed %d, %d s, trace %d)\n%!" w seed seconds trace;
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [| exe; "run"; "--workload"; w; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; string_of_int trace |]
  in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec lines last =
    match input_line ic with
    | l ->
        print_endline l;
        lines l
    | exception End_of_file -> last
  in
  let last = lines "" in
  close_in ic;
  let status = snd (Unix.waitpid [] pid) in
  let j = try Json.of_string last with Json.Parse_error _ -> Json.Null in
  (j, status = Unix.WEXITED 0 && Json.member "correct" j = Json.Bool true)

(* Every workload in its own subprocess, so the serve workload's client
   threads never share a process with a fork parent. *)
let benchmark ~seed ~seconds ~traced =
  let spec = spec () in
  let seconds = Option.value seconds ~default:spec.run_seconds in
  let runs =
    List.concat_map
      (fun w ->
        List.map
          (fun trace -> ((w, trace), run_child ~seed ~seconds w trace))
          (if traced then [ 0; 1 ] else [ 0 ]))
      spec.workloads
  in
  print_endline "\n== summary";
  List.iter
    (fun ((w, trace), (j, _)) ->
      match Json.member "metrics" j with
      | Json.Obj kvs ->
          List.iter
            (fun (name, v) ->
              Printf.printf "%-12s %-36s %14.6g %s\n" w name
                (Json.to_num (Json.member "value" v))
                (Json.to_str (Json.member "unit" v)))
            kvs
      | _ -> Printf.printf "%-12s trace %d: no result\n" w trace)
    runs;
  mkdir_p out_dir;
  Json.to_file
    (Filename.concat out_dir (Printf.sprintf "benchmark-s%d.json" seed))
    (Json.Obj
       (List.map (fun ((w, trace), (j, _)) -> (Printf.sprintf "%s/trace%d" w trace, j)) runs));
  let ok = List.for_all (fun (_, (_, ok)) -> ok) runs in
  if not ok then prerr_endline "benchmark: a workload failed or a design differs from golden";
  exit (if ok then 0 else 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flags acc = function
    | [] -> List.rev acc
    | "--traced" :: rest -> flags (("--traced", "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> flags ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let int_flag fs k =
    match Option.map int_of_string_opt (List.assoc_opt k fs) with
    | Some (Some n) -> Some n
    | Some None -> usage ()
    | None -> None
  in
  let required = function Some v -> v | None -> usage () in
  match args with
  | "run" :: rest ->
      let fs = flags [] rest in
      let trace =
        match List.assoc_opt "--trace" fs with
        | Some "1" -> true
        | Some "0" -> false
        | _ -> usage ()
      in
      run_workload
        ~workload:(required (List.assoc_opt "--workload" fs))
        ~seed:(required (int_flag fs "--seed"))
        ~seconds:(required (int_flag fs "--seconds"))
        ~trace
  | "benchmark" :: rest ->
      let fs = flags [] rest in
      benchmark
        ~seed:(required (int_flag fs "--seed"))
        ~seconds:(int_flag fs "--seconds")
        ~traced:(List.mem_assoc "--traced" fs)
  | [ "compare"; a; b ] ->
      let spec = spec () in
      let metrics =
        List.map
          (fun m -> { Compare.name = m.name; better = m.better; bound = m.bound })
          spec.end_to_end
      in
      exit (if Compare.run ~workloads:spec.workloads ~metrics a b then 1 else 0)
  | [ "ready" ] -> Cold.ready ()
  | _ -> usage ()
