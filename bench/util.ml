(* Shared helpers for the experiment harness: framework runners and
   paper-style table formatting. *)

let device = Pom.Hls.Device.xc7z020

let framework_name = function
  | `Baseline -> "Baseline"
  | `Pluto -> "Pluto"
  | `Polsca -> "POLSCA"
  | `Scalehls -> "ScaleHLS"
  | `Pom_manual -> "POM-manual"
  | `Pom_auto -> "POM"

let compile ?(device = device) ?(dnn = false) fw func =
  Pom.compile ~device ~framework:fw ~dnn func

let report (c : Pom.compiled) = c.Pom.report

let usage c = (report c).Pom.Hls.Report.usage

let pct part total = 100.0 *. float_of_int part /. float_of_int total

let dsp_s ?(device = device) c =
  Printf.sprintf "%d (%.0f%%)" (usage c).Pom.Hls.Resource.dsp
    (pct (usage c).Pom.Hls.Resource.dsp device.Pom.Hls.Device.dsp)

let ff_s ?(device = device) c =
  Printf.sprintf "%d (%.0f%%)" (usage c).Pom.Hls.Resource.ff
    (pct (usage c).Pom.Hls.Resource.ff device.Pom.Hls.Device.ff)

let lut_s ?(device = device) c =
  Printf.sprintf "%d (%.0f%%)" (usage c).Pom.Hls.Resource.lut
    (pct (usage c).Pom.Hls.Resource.lut device.Pom.Hls.Device.lut)

let speedup_s c = Printf.sprintf "%.1fx" (Pom.speedup c)

let ii_s c =
  match (report c).Pom.Hls.Report.iis with
  | [] -> "-"
  | iis -> String.concat ", " (List.map (fun (_, ii) -> string_of_int ii) iis)

let tiles_s c =
  match c.Pom.tile_vectors with
  | [] -> "-"
  | vs ->
      String.concat ", "
        (List.map
           (fun (_, v) ->
             "[" ^ String.concat "," (List.map string_of_int v) ^ "]")
           vs)

let parallelism_s c =
  Printf.sprintf "%.1f" (report c).Pom.Hls.Report.parallelism

let power_s c = Printf.sprintf "%.3f" (report c).Pom.Hls.Report.power

let dse_time_s c =
  if c.Pom.dse_time_s > 0.0 then Printf.sprintf "%.2f" c.Pom.dse_time_s else "-"

let feasible_s c = if (report c).Pom.Hls.Report.feasible then "" else " [!]"

(* fixed-width table printing *)
let print_table header rows =
  let all = header :: rows in
  let n = List.length header in
  let widths =
    List.init n (fun k ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row k)))
          0 all)
  in
  let line row =
    String.concat "  "
      (List.mapi
         (fun k cell -> cell ^ String.make (List.nth widths k - String.length cell) ' ')
         row)
  in
  print_endline (line header);
  print_endline (String.make (String.length (line header)) '-');
  List.iter (fun row -> print_endline (line row)) rows

let section title =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==========================================================\n"

(* per-group (per-loop) resource usage of a compiled design, for Fig. 13's
   accumulated-resource plot *)
let per_group_usage (c : Pom.compiled) =
  let prog = c.Pom.prog in
  let profiles = Pom.Hls.Summary.profile_all prog in
  let evals, _ =
    Pom.Hls.Latency.eval_program
      ~partitions:(Pom.Polyir.Prog.partition_of prog)
      profiles
  in
  List.map
    (fun (e : Pom.Hls.Latency.group_eval) ->
      let mine =
        List.filter
          (fun (p : Pom.Hls.Summary.t) ->
            p.Pom.Hls.Summary.group = e.Pom.Hls.Latency.group)
          profiles
      in
      let names =
        List.map
          (fun (p : Pom.Hls.Summary.t) ->
            Pom.Polyir.Stmt_poly.name p.Pom.Hls.Summary.stmt)
          mine
      in
      (names, Pom.Hls.Resource.group_usage mine e))
    evals
