(* The full experiment harness: regenerate every table and figure of the
   paper's evaluation (Section VII), plus the refute, serve and chaos
   benches.

   Usage:
     dune exec bench/main.exe              -- every experiment
     dune exec bench/main.exe <id> [<id>]  -- the named experiments *)

let experiments =
  [
    ("fig2", Bench_fig2.run);
    ("table3", Bench_table3.run);
    ("fig11", Bench_fig11.run);
    ("table4", Bench_table4.run);
    ("fig12", Bench_fig12.run);
    ("table5", Bench_table5.run);
    ("table6", Bench_table6.run);
    ("fig13", Bench_fig13.run);
    ("table7", Bench_table7.run);
    ("fig14", Bench_fig14.run);
    ("fig15", Bench_fig15.run);
    ("fig16", Bench_fig16.run);
    ("ablation", Bench_ablation.run);
    ("generality", Bench_generality.run);
    ("devices", Bench_devices.run);
    ("refute", Bench_refute.run);
    ("serve", Bench_serve.run);
    ("chaos", Bench_chaos.run);
  ]

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [] -> List.iter (fun (_, run) -> run ()) experiments
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt id experiments with
          | Some run -> run ()
          | None ->
              Printf.eprintf "unknown experiment %s (known: %s)\n" id
                (String.concat ", " (List.map fst experiments));
              exit 1)
        ids
