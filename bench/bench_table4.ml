(* Table IV: automatically explored BICG design vs expert manual
   optimization vs the unoptimized kernel. *)

let run () =
  Util.section "Table IV | BICG: unoptimized / manual / DSE (N = 4096)";
  let n = 4096 in
  let unopt = Util.compile `Baseline (Pom.Workloads.Polybench.bicg n) in
  let manual =
    Util.compile `Pom_manual (Pom.Workloads.Polybench.bicg_expert n)
  in
  let dse = Util.compile `Pom_auto (Pom.Workloads.Polybench.bicg n) in
  let row name (c : Pom.compiled) =
    [
      name;
      string_of_int c.Pom.report.Pom.Hls.Report.latency;
      Util.speedup_s c;
      Util.dsp_s c;
      Util.ff_s c;
      Util.lut_s c;
    ]
  in
  Util.print_table
    [ "Design"; "Cycles"; "Speedup"; "DSP (util)"; "FF (util)"; "LUT (util)" ]
    [ row "Unoptimized" unopt; row "Manual opt." manual; row "DSE opt." dse ]
