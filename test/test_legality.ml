open Pom_dsl
open Pom_polyir
open Pom_workloads

let check func prog =
  Legality.violations ~original:(Prog.reference func) ~transformed:prog = []

let test_identity_legal () =
  let f = Polybench.gemm 8 in
  Alcotest.(check bool) "identity" true (check f (Prog.reference f))

let test_safe_interchange_legal () =
  let f = Polybench.gemm 8 in
  Func.schedule f (Schedule.interchange "s" "i" "k");
  Alcotest.(check bool) "reduction rotation" true (check f (Prog.of_func f))

let test_tiling_legal () =
  let f = Polybench.gemm 8 in
  Func.schedule f (Schedule.tile "s" "i" "j" 2 2 "i0" "j0" "i1" "j1");
  Alcotest.(check bool) "tiling" true (check f (Prog.of_func f))

let test_skew_legal () =
  let f = Polybench.seidel ~tsteps:3 10 in
  Func.schedule f (Schedule.skew "s" "i" "j" 2 1 "is" "js");
  Func.schedule f (Schedule.interchange "s" "is" "js");
  Alcotest.(check bool) "skew + interchange" true (check f (Prog.of_func f))

let test_illegal_stencil_interchange () =
  (* moving the time loop inside a space loop of an in-place stencil
     reverses dependences *)
  let f = Polybench.seidel ~tsteps:3 10 in
  Func.schedule f (Schedule.interchange "s" "t" "j");
  Alcotest.(check bool) "caught" false (check f (Prog.of_func f));
  let vs =
    Legality.violations
      ~original:(Prog.reference (Polybench.seidel ~tsteps:3 10))
      ~transformed:(Prog.of_func f)
  in
  Alcotest.(check bool) "reports RAW on A" true
    (List.exists
       (fun (v : Legality.violation) ->
         v.Legality.kind = `Raw && v.Legality.array = "A")
       vs)

(* Two recurrences of one shape, [X[i][j] = X[i-1][j+1] + 1] on
   different arrays: their flip problems differ only in the order
   branches once one of them is interchanged, which reverses its
   (1, -1) dependence.  The verdict table must not hand the interchanged
   one's verdict to the other. *)
let twin_recurrences () =
  let open Expr in
  let f = Func.create "twins" in
  let n = 8 in
  List.iter
    (fun (name, out) ->
      let i = Var.make "i" 1 n and j = Var.make "j" 0 (n - 1) in
      let x = Placeholder.make out [ n; n ] Dtype.p_float32 in
      ignore
        (Func.compute f name ~iters:[ i; j ]
           ~body:(access x [ ix i -! ixc 1; ix j +! ixc 1 ] +: fconst 1.0)
           ~dest:(x, [ ix i; ix j ]) ()))
    [ ("s1", "X"); ("s2", "Y") ];
  f

let test_same_shape_statements () =
  List.iter
    (fun interchanged ->
      let f = twin_recurrences () in
      Func.schedule f (Schedule.interchange interchanged "i" "j");
      let named =
        List.sort_uniq compare
          (List.concat_map
             (fun (v : Legality.violation) ->
               [ v.Legality.src_stmt; v.Legality.dst_stmt ])
             (Legality.violations ~original:(Prog.reference f)
                ~transformed:(Prog.of_func f)))
      in
      Alcotest.(check (list string))
        (interchanged ^ " interchanged: only it is named")
        [ interchanged ] named)
    [ "s1"; "s2" ]

(* A reduction's RAW, WAR and WAW pairs read one access function, so they
   pose one flip problem; each kind is still reported. *)
let test_reversed_reduction_kinds () =
  let f = Polybench.gemm 8 in
  Func.schedule f (Schedule.reverse "s" "k" "kr");
  let vs =
    Legality.violations ~original:(Prog.reference f)
      ~transformed:(Prog.of_func f)
  in
  List.iter
    (fun (kind, name) ->
      Alcotest.(check bool) (name ^ " on D reported") true
        (List.exists
           (fun (v : Legality.violation) ->
             v.Legality.kind = kind && v.Legality.array = "D"
             && v.Legality.src_stmt = "s" && v.Legality.dst_stmt = "s")
           vs))
    [ (`Raw, "RAW"); (`War, "WAR"); (`Waw, "WAW") ]

let test_illegal_distribution () =
  (* dropping the ping-pong fusion changes the interleaving *)
  let f = Polybench.jacobi1d ~tsteps:3 10 in
  Alcotest.(check bool) "caught" false (check f (Prog.of_func_unscheduled f))

let test_bicg_distribution_legal () =
  (* BICG's two statements are independent: dropping their fusion is fine *)
  let f = Polybench.bicg 8 in
  Alcotest.(check bool) "independent statements distribute" true
    (check f (Prog.of_func_unscheduled f))

let test_reversal_legality () =
  (* reversing gemm's parallel j loop is legal: no dependence runs along
     it *)
  let f = Polybench.gemm 8 in
  Func.schedule f (Schedule.reverse "s" "j" "jr");
  Alcotest.(check bool) "free-loop reversal legal" true (check f (Prog.of_func f));
  (* reversing the reduction loop k flips the accumulation chain *)
  let g = Polybench.gemm 8 in
  Func.schedule g (Schedule.reverse "s" "k" "kr");
  Alcotest.(check bool) "reduction reversal caught" false
    (check g (Prog.of_func g));
  (* reversing a stencil's space loop flips the in-sweep dependence *)
  let h = Polybench.seidel ~tsteps:3 10 in
  Func.schedule h (Schedule.reverse "s" "j" "jr");
  Alcotest.(check bool) "stencil reversal caught" false
    (check h (Prog.of_func h))

let test_dse_outputs_legal () =
  List.iter
    (fun func ->
      let o = Pom_dse.Engine.run func in
      Alcotest.(check bool)
        (Func.name func ^ " DSE schedule is legal")
        true
        (check func o.Pom_dse.Engine.result.Pom_dse.Stage2.prog))
    [
      Polybench.gemm 8;
      Polybench.bicg 8;
      Polybench.gesummv 8;
      Polybench.mm2 6;
      Polybench.jacobi1d ~tsteps:3 12;
      Polybench.seidel ~tsteps:2 10;
      Image.blur 10;
    ]

(* agreement: on random small schedules, the polyhedral verdict matches
   the simulator's (legal => divergence 0; we only check that direction,
   since an illegal interleaving can still compute equal values) *)
let sched_gen =
  QCheck.Gen.(
    list_size (int_range 0 3) (oneofl [ `Swap01; `Swap12; `Swap02 ]))

let prop_legal_implies_equivalent =
  QCheck.Test.make ~name:"legal schedules are semantically equivalent" ~count:30
    (QCheck.make sched_gen) (fun steps ->
      let f = Polybench.seidel ~tsteps:2 8 in
      List.iter
        (fun step ->
          let prog = Prog.of_func f in
          let order = Stmt_poly.loop_order (Prog.stmt prog "s") in
          let d k = List.nth order k in
          match step with
          | `Swap01 -> Func.schedule f (Schedule.interchange "s" (d 0) (d 1))
          | `Swap12 -> Func.schedule f (Schedule.interchange "s" (d 1) (d 2))
          | `Swap02 -> Func.schedule f (Schedule.interchange "s" (d 0) (d 2)))
        steps;
      let prog = Prog.of_func f in
      (not (check f prog)) || Pom_sim.Interp.divergence f prog = 0.0)

(* The checker as it was before it skipped the unchanged time prefix:
   every original-order branch crossed with every new-order branch.  Kept
   here as the oracle its verdicts must equal. *)
module Full_crossing = struct
  open Pom_poly

  type inst = {
    name : string;
    constrs : Constr.t list;
    dims : string list;
    orig_time : Dep2.time_item list;
    new_time : Dep2.time_item list;
    write : Dep.access;
    reads : Dep.access list;
  }

  let rename_expr tag e =
    List.fold_left
      (fun e d -> Linexpr.rename_dim d (tag ^ d) e)
      e (Linexpr.dims e)

  let access tag (s : Stmt_poly.t) (a : Dep.access) =
    {
      a with
      Dep.indices =
        List.map
          (fun e -> rename_expr tag (Linexpr.subst_all s.Stmt_poly.index_map e))
          a.Dep.indices;
    }

  let inst_of tag (orig : Stmt_poly.t) (s : Stmt_poly.t) =
    let time_of sched index_map =
      List.map
        (function
          | Sched.Const c -> Dep2.C c
          | Sched.Dim d ->
              Dep2.V
                (rename_expr tag
                   (Option.value (List.assoc_opt d index_map)
                      ~default:(Linexpr.var d))))
        (Sched.items sched)
    in
    {
      name = Stmt_poly.name s;
      constrs =
        List.map
          (fun c ->
            let e = rename_expr tag (Constr.expr c) in
            if Constr.is_eq c then Constr.Eq e else Constr.Ge e)
          (Basic_set.constraints s.Stmt_poly.domain);
      dims = List.map (( ^ ) tag) (Basic_set.dims s.Stmt_poly.domain);
      orig_time = time_of orig.Stmt_poly.sched s.Stmt_poly.index_map;
      new_time = time_of s.Stmt_poly.sched [];
      write = access tag s (Compute.write_access s.Stmt_poly.compute);
      reads =
        List.map (access tag s) (Compute.read_accesses s.Stmt_poly.compute);
    }

  let flip_exists a b (acc_a : Dep.access) (acc_b : Dep.access) =
    acc_a.Dep.array = acc_b.Dep.array
    && List.length acc_a.Dep.indices = List.length acc_b.Dep.indices
    &&
    let base =
      a.constrs @ b.constrs
      @ List.map2 Constr.eq acc_a.Dep.indices acc_b.Dep.indices
    in
    let oa, ob = Dep2.align a.orig_time b.orig_time in
    let na, nb = Dep2.align a.new_time b.new_time in
    List.exists
      (fun o ->
        List.exists
          (fun n ->
            not
              (Feasible.is_empty
                 (Basic_set.make (a.dims @ b.dims) (base @ o @ n))))
          (Dep2.order_branches nb na))
      (Dep2.order_branches oa ob)

  let violations ~original ~(transformed : Prog.t) =
    let insts tag =
      List.map
        (fun s -> inst_of tag (Prog.stmt original (Stmt_poly.name s)) s)
        transformed.Prog.stmts
    in
    List.sort_uniq compare
      (List.concat_map
         (fun a ->
           List.concat_map
             (fun b ->
               List.filter_map
                 (fun (acc_a, acc_b, kind) ->
                   if flip_exists a b acc_a acc_b then
                     Some
                       {
                         Legality.src_stmt = a.name;
                         dst_stmt = b.name;
                         array = acc_a.Dep.array;
                         kind;
                       }
                   else None)
                 (List.map (fun r -> (a.write, r, `Raw)) b.reads
                 @ List.map (fun r -> (r, b.write, `War)) a.reads
                 @ [ (a.write, b.write, `Waw) ]))
             (insts "b$"))
         (insts "a$"))
end

let violation =
  Alcotest.testable Legality.pp_violation (fun (a : Legality.violation) b ->
      a = b)

let agrees where func transformed =
  let original = Prog.reference func in
  let expected = Full_crossing.violations ~original ~transformed in
  Alcotest.(check (list violation))
    (where ^ ": violations equal the full crossing's")
    expected
    (Legality.violations ~original ~transformed);
  expected <> []

let test_prefix_skip_random_programs () =
  let rand = Random.State.make [| 7 |] in
  let checked = ref 0 and illegal = ref 0 in
  for case = 1 to 300 do
    let f = QCheck.Gen.generate1 ~rand (Pom_refute.Gen.func ()) in
    match Prog.of_func f with
    | exception (Transform.Transform_error _ | Invalid_argument _) -> ()
    | transformed ->
        incr checked;
        if agrees (Printf.sprintf "random case %d" case) f transformed then
          incr illegal
  done;
  Alcotest.(check bool) "most random schedules apply" true (!checked > 150);
  Alcotest.(check bool) "some random schedules are illegal" true (!illegal > 0)

let test_prefix_skip_final_programs () =
  List.iter
    (fun (where, framework, func) ->
      let c = Pom.compile ~framework func in
      ignore (agrees where func c.Pom.prog))
    [
      ("gemm pom", `Pom_auto, Polybench.gemm 16);
      ("gemm scalehls", `Scalehls, Polybench.gemm 16);
      ("2mm pom", `Pom_auto, Polybench.mm2 16);
      ("bicg pom", `Pom_auto, Polybench.bicg 16);
      ("jacobi-1d pom", `Pom_auto, Polybench.jacobi1d 16);
      ("jacobi-2d pluto", `Pluto, Polybench.jacobi2d 16);
      ("heat-1d polsca", `Polsca, Polybench.heat1d 16);
      ("seidel pom", `Pom_auto, Polybench.seidel 16);
      ("blur pom", `Pom_auto, Image.blur 16);
    ];
  (* Pluto's Seidel schedule reverses dependences from size 128 on *)
  let seidel = Polybench.seidel 128 in
  let c = Pom.compile ~framework:`Pluto seidel in
  Alcotest.(check bool) "pluto's seidel is illegal" true
    (agrees "seidel pluto" seidel c.Pom.prog)

let () =
  Alcotest.run "legality"
    [
      ( "unit",
        [
          Alcotest.test_case "identity" `Quick test_identity_legal;
          Alcotest.test_case "safe interchange" `Quick test_safe_interchange_legal;
          Alcotest.test_case "tiling" `Quick test_tiling_legal;
          Alcotest.test_case "skewing" `Quick test_skew_legal;
          Alcotest.test_case "illegal stencil interchange" `Quick
            test_illegal_stencil_interchange;
          Alcotest.test_case "illegal distribution" `Quick test_illegal_distribution;
          Alcotest.test_case "independent distribution" `Quick
            test_bicg_distribution_legal;
          Alcotest.test_case "loop reversal legality" `Quick
            test_reversal_legality;
          Alcotest.test_case "same-shape statements" `Quick
            test_same_shape_statements;
          Alcotest.test_case "reversed reduction kinds" `Quick
            test_reversed_reduction_kinds;
          Alcotest.test_case "DSE outputs are legal" `Slow test_dse_outputs_legal;
          Alcotest.test_case "prefix skip agrees on random programs" `Quick
            test_prefix_skip_random_programs;
          Alcotest.test_case "prefix skip agrees on final programs" `Slow
            test_prefix_skip_final_programs;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_legal_implies_equivalent ] );
    ]
