(* A tour of the features beyond the quickstart: non-rectangular iteration
   domains (`where` clauses), custom data types, the loop-reversal
   extension, the polyhedral legality checker, MLIR emission, and the
   compilable C testbench.

   Run with: dune exec examples/advanced_features.exe *)

open Pom.Dsl

let () =
  (* -- a triangular kernel: trmm updates B(i,j) from rows k > i -------- *)
  let n = 16 in
  let f = Func.create "trmm" in
  let a = Placeholder.make "A" [ n; n ] Dtype.p_float32 in
  let b = Placeholder.make "B" [ n; n ] Dtype.p_float32 in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n and k = Var.make "k" 0 n in
  let open Expr in
  ignore
    (Func.compute f "s" ~iters:[ i; j; k ]
       ~where:[ Cgt (ix k, ix i) ] (* triangular: k > i *)
       ~body:
         (access b [ ix i; ix j ]
         +: (access a [ ix k; ix i ] *: access b [ ix k; ix j ]))
       ~dest:(b, [ ix i; ix j ]) ());

  let c = Pom.compile ~framework:`Pom_auto f in
  Format.printf "triangular trmm: %a@.  speedup %.1fx, divergence %g@.@."
    Pom.Hls.Report.pp c.Pom.report (Pom.speedup c) (Pom.validate f c);

  (* -- the legality checker accepts the DSE plan and rejects a bad one - *)
  (match Pom.check_legality f c with
  | [] -> print_endline "DSE schedule: all dependences preserved"
  | vs ->
      List.iter (Format.printf "%a@." Pom.Polyir.Legality.pp_violation) vs);
  let bad = Func.create "trmm_bad" in
  let i = Var.make "i" 0 n and j = Var.make "j" 0 n and k = Var.make "k" 0 n in
  ignore
    (Func.compute bad "s" ~iters:[ i; j; k ]
       ~where:[ Cgt (ix k, ix i) ]
       ~body:
         (access b [ ix i; ix j ]
         +: (access a [ ix k; ix i ] *: access b [ ix k; ix j ]))
       ~dest:(b, [ ix i; ix j ]) ());
  (* reversing i flips the triangular producer/consumer order *)
  Func.schedule bad (Schedule.reverse "s" "i" "ir");
  let cbad = Pom.compile ~framework:`Pom_manual bad in
  (match Pom.check_legality bad cbad with
  | [] -> print_endline "unexpected: reversal accepted"
  | v :: _ ->
      Format.printf "illegal reversal caught: %a@.@."
        Pom.Polyir.Legality.pp_violation v);

  (* -- data-type customization: the same GEMM at int8 ------------------ *)
  let gi8 = Pom.Workloads.Polybench.gemm_typed Dtype.p_int8 256 in
  let ci8 = Pom.compile ~framework:`Pom_auto gi8 in
  Format.printf "int8 GEMM: %a@.  (all-LUT MACs: zero DSP blocks)@.@."
    Pom.Hls.Report.pp ci8.Pom.report;

  (* -- the MLIR affine-dialect artifact (Fig. 9 (d)) ------------------- *)
  let tiny = Pom.Workloads.Polybench.gemm 8 in
  let ct = Pom.compile ~framework:`Pom_auto tiny in
  print_endline "annotated affine dialect as MLIR:";
  print_string (Pom.mlir ct);

  (* -- the compilable C testbench -------------------------------------- *)
  print_endline "\nC testbench head (compile with `cc tb.c -lm`):";
  let tb = Pom.Emit.Emit.testbench ct.Pom.affine in
  String.split_on_char '\n' tb
  |> List.filteri (fun k _ -> k < 12)
  |> List.iter print_endline
