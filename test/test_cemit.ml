(* Cross-check the generated HLS C against the OCaml simulator: compile the
   kernel + generated testbench with the system C compiler, run it, and
   compare per-array checksums with the simulator's on bit-identical
   inputs.  Skipped gracefully when no C compiler is on PATH. *)

open Pom_dsl
open Pom_workloads

let have_cc = Sys.command "command -v cc > /dev/null 2> /dev/null" = 0

let run_c source =
  let dir = Filename.temp_file "pomtb" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let c_file = Filename.concat dir "tb.c" in
  let exe = Filename.concat dir "tb" in
  let out = Filename.concat dir "out.txt" in
  let oc = open_out c_file in
  output_string oc source;
  close_out oc;
  let compile =
    Printf.sprintf "cc -O1 -o %s %s -lm 2> %s/cc.log" exe c_file dir
  in
  if Sys.command compile <> 0 then
    Alcotest.failf "cc failed (see %s/cc.log)" dir;
  if Sys.command (Printf.sprintf "%s > %s" exe out) <> 0 then
    Alcotest.fail "testbench exited non-zero";
  let ic = open_in out in
  let sums = ref [] in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ name; value ] -> sums := (name, float_of_string value) :: !sums
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.sort compare !sums

let sim_checksums func prog =
  let mem = Pom_sim.Memory.create (Func.placeholders func) in
  Pom_sim.Interp.run_affine
    (Pom_affine.Passes.simplify (Pom_affine.Lower.lower prog))
    mem;
  Pom_sim.Memory.checksums mem

let crosscheck name func prog =
  if not have_cc then ()
  else begin
    let af = Pom_affine.Passes.simplify (Pom_affine.Lower.lower prog) in
    let c_sums = run_c (Pom_emit.Emit.testbench af) in
    let ml_sums = sim_checksums func prog in
    Alcotest.(check (list string))
      (name ^ ": same arrays")
      (List.map fst ml_sums) (List.map fst c_sums);
    List.iter2
      (fun (a, x) (_, y) ->
        let rel = Float.abs (x -. y) /. Float.max 1.0 (Float.abs x) in
        if rel > 1e-3 then
          Alcotest.failf "%s: array %s checksum differs: C %.10e vs sim %.10e"
            name a y x)
      ml_sums c_sums
  end

let test_plain_kernels () =
  List.iter
    (fun func ->
      crosscheck (Func.name func) func (Pom_polyir.Prog.reference func))
    [
      Polybench.gemm 12;
      Polybench.bicg 12;
      Polybench.gesummv 10;
      Polybench.seidel ~tsteps:3 12;
      Polybench.jacobi1d ~tsteps:4 16;
      Polybench.trmm 10;
      Image.blur 10;
      Image.gaussian 10;
    ]

let test_transformed_kernels () =
  (* the DSE's full schedules, including skewed and fused ones, produce C
     that computes the same values *)
  List.iter
    (fun func ->
      let o = Pom_dse.Engine.run func in
      crosscheck
        (Func.name func ^ "+dse")
        func o.Pom_dse.Engine.result.Pom_dse.Stage2.prog)
    [
      Polybench.gemm 12;
      Polybench.bicg 12;
      Polybench.seidel ~tsteps:3 12;
      Polybench.mm2 8;
    ]

let test_manual_schedule () =
  let f = Polybench.gemm 8 in
  Func.schedule f (Schedule.tile "s" "i" "j" 2 4 "i0" "j0" "i1" "j1");
  Func.schedule f (Schedule.interchange "s" "k" "i0");
  crosscheck "gemm+manual" f (Pom_polyir.Prog.of_func f)

let () =
  Alcotest.run "cemit"
    [
      ( "cross-check",
        [
          Alcotest.test_case "plain kernels" `Slow test_plain_kernels;
          Alcotest.test_case "DSE-transformed kernels" `Slow
            test_transformed_kernels;
          Alcotest.test_case "manual schedule" `Quick test_manual_schedule;
        ] );
    ]
