open Pom_poly

let v = Linexpr.var

let c = Linexpr.const

let box dims_bounds =
  Basic_set.make
    (List.map (fun (d, _, _) -> d) dims_bounds)
    (List.concat_map
       (fun (d, lo, hi) ->
         [ Constr.ge (v d) (c lo); Constr.le (v d) (c (hi - 1)) ])
       dims_bounds)

(* GEMM reduction: D(i,j) written and read at every (i,j,k) -> distance
   vector (0,0,1), carried at level 3 (Fig. 8's fine-grained analysis) *)
let test_gemm_reduction () =
  let domain = box [ ("i", 0, 32); ("j", 0, 32); ("k", 0, 32) ] in
  let acc = Dep.access "D" [ v "i"; v "j" ] in
  match Dep.analyze ~domain ~source:acc ~sink:acc with
  | None -> Alcotest.fail "expected dependence"
  | Some d ->
      Alcotest.(check int) "carried at level 3" 3 (Dep.outermost_level d);
      Alcotest.(check (option int)) "distance at level 3" (Some 1)
        (Dep.min_distance_at d 3);
      Alcotest.(check (list (option int))) "min distance vector"
        [ Some 0; Some 0; Some 1 ]
        (Dep.min_distance_vector d);
      Alcotest.(check string) "direction" "(=, =, <)"
        (Format.asprintf "(%a)"
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
              Dep.pp_direction)
           d.Dep.direction)

(* BICG's q accumulation: q(i) over (i,j) -> carried at level 2 only *)
let test_bicg_q () =
  let domain = box [ ("i", 0, 16); ("j", 0, 16) ] in
  let acc = Dep.access "q" [ v "i" ] in
  match Dep.analyze ~domain ~source:acc ~sink:acc with
  | None -> Alcotest.fail "expected dependence"
  | Some d ->
      Alcotest.(check int) "single carried level" 2 (Dep.outermost_level d);
      Alcotest.(check int) "same innermost" 2 (Dep.innermost_level d);
      Alcotest.(check (option int)) "not carried at level 1" None
        (Dep.min_distance_at d 1)

(* uniform stencil: write A(i), read A(i-1): distance exactly 1 *)
let test_uniform_stencil () =
  let domain = box [ ("i", 1, 31) ] in
  let w = Dep.access "A" [ v "i" ] in
  let r = Dep.access "A" [ Linexpr.sub (v "i") (c 1) ] in
  match Dep.analyze ~domain ~source:w ~sink:r with
  | None -> Alcotest.fail "expected dependence"
  | Some d ->
      Alcotest.(check (option (list int))) "constant distance" (Some [ 1 ])
        (Dep.constant_distance d)

(* anti-direction read A(i+1): the write never reaches a later read *)
let test_no_forward_dependence () =
  let domain = box [ ("i", 1, 31) ] in
  let w = Dep.access "A" [ v "i" ] in
  let r = Dep.access "A" [ Linexpr.add (v "i") (c 1) ] in
  (* sink (t) reads A(t+1) = A(s) means t = s - 1 < s: no later sink *)
  Alcotest.(check bool) "no dependence" true
    (Dep.analyze ~domain ~source:w ~sink:r = None)

let test_different_arrays () =
  let domain = box [ ("i", 0, 8) ] in
  Alcotest.(check bool) "different arrays never conflict" true
    (Dep.analyze ~domain ~source:(Dep.access "A" [ v "i" ])
       ~sink:(Dep.access "B" [ v "i" ])
    = None)

let test_strided_no_conflict () =
  (* write A(2i), read A(2i + 1): parity separates them *)
  let domain = box [ ("i", 0, 8) ] in
  let w = Dep.access "A" [ Linexpr.term 2 "i" ] in
  let r = Dep.access "A" [ Linexpr.add (Linexpr.term 2 "i") (c 1) ] in
  Alcotest.(check bool) "parity disjoint" true
    (Dep.analyze ~domain ~source:w ~sink:r = None)

(* seidel-style: write A(i,j), read A(i+1,j-1) (i.e. source at (i,j) feeds
   sink at (i+1, j-1) reading the updated value) *)
let test_seidel_diagonal () =
  let domain = box [ ("i", 1, 9); ("j", 1, 9) ] in
  let w = Dep.access "A" [ v "i"; v "j" ] in
  let r = Dep.access "A" [ Linexpr.sub (v "i") (c 1); Linexpr.add (v "j") (c 1) ] in
  match Dep.analyze ~domain ~source:w ~sink:r with
  | None -> Alcotest.fail "expected dependence"
  | Some d ->
      Alcotest.(check (option (list int))) "distance (1,-1)" (Some [ 1; -1 ])
        (Dep.constant_distance d)

(* property: the reported minimal distance at the outermost carried level
   is witnessed by an actual conflicting instance pair (brute force) *)
let prop_distance_witnessed =
  QCheck.Test.make ~name:"minimal distance has a witness" ~count:100
    QCheck.(pair (int_range (-2) 2) (int_range (-2) 2))
    (fun (di, dj) ->
      QCheck.assume (not (di = 0 && dj = 0));
      let n = 6 in
      let domain = box [ ("i", 0, n); ("j", 0, n) ] in
      let w = Dep.access "A" [ v "i"; v "j" ] in
      let r =
        Dep.access "A"
          [ Linexpr.add (v "i") (c di); Linexpr.add (v "j") (c dj) ]
      in
      (* brute force: does any (s, t) with s <lex t conflict? *)
      let exists = ref false in
      for si = 0 to n - 1 do
        for sj = 0 to n - 1 do
          for ti = 0 to n - 1 do
            for tj = 0 to n - 1 do
              if
                (si < ti || (si = ti && sj < tj))
                && si = ti + di && sj = tj + dj
              then exists := true
            done
          done
        done
      done;
      (Dep.analyze ~domain ~source:w ~sink:r <> None) = !exists)

(* ---- differential: the QoR model's query and the single-proof boxes ----

   Every statement of the Table III/V/VII kernels, and a conv, a pool and a
   residual statement of the DNNs, in the iteration space the QoR model
   profiles: after Stage 1, and after Stage 2's realization at parallelism
   1, 4 and 16.  Each write/read pair is checked twice: the carried-distance
   query against [Dep.analyze], and [Dep.analyze] against a reference built
   here without sharing its code — the conflict polyhedron of each level
   rebuilt, and each distance bound from its own [Feasible.min_of]/[max_of],
   each of which tests emptiness again. *)

module P = Pom.Workloads.Polybench
module I = Pom.Workloads.Image
module D = Pom.Workloads.Dnn
module Stmt_poly = Pom.Polyir.Stmt_poly
module Prog = Pom.Polyir.Prog

let reference_conflict ~domain ~(source : Dep.access) ~(sink : Dep.access)
    level =
  let ds = Basic_set.dims domain in
  let rename tag e =
    List.fold_left (fun e d -> Linexpr.rename_dim d (tag ^ d) e) e
      (Linexpr.dims e)
  in
  let copy tag =
    List.map
      (function
        | Constr.Eq e -> Constr.Eq (rename tag e)
        | Constr.Ge e -> Constr.Ge (rename tag e))
      (Basic_set.constraints domain)
  in
  let same_element =
    List.map2
      (fun i j -> Constr.eq (rename "s$" i) (rename "t$" j))
      source.Dep.indices sink.Dep.indices
  in
  let order =
    List.concat
      (List.mapi
         (fun k d ->
           let s = v ("s$" ^ d) and t = v ("t$" ^ d) in
           if k + 1 < level then [ Constr.eq s t ]
           else if k + 1 = level then [ Constr.lt s t ]
           else [])
         ds)
  in
  Basic_set.make
    (List.map (( ^ ) "s$") ds @ List.map (( ^ ) "t$") ds)
    (copy "s$" @ copy "t$" @ same_element @ order)

let reference_boxes ~domain ~source ~sink =
  if source.Dep.array <> sink.Dep.array then []
  else
    let ds = Basic_set.dims domain in
    List.filter_map
      (fun level ->
        let conflict = reference_conflict ~domain ~source ~sink level in
        if Feasible.is_empty conflict then None
        else
          Some
            ( level,
              List.map
                (fun d ->
                  let diff = Linexpr.sub (v ("t$" ^ d)) (v ("s$" ^ d)) in
                  ( Feasible.min_of diff conflict,
                    Feasible.max_of diff conflict ))
                ds ))
      (List.init (List.length ds) (fun k -> k + 1))

let boxes_of = function
  | None -> []
  | Some (d : Dep.t) ->
      List.map
        (fun (ld : Dep.level_dep) ->
          ( ld.Dep.level,
            List.map (fun (e : Dep.entry) -> (e.Dep.dmin, e.Dep.dmax))
              ld.Dep.distance ))
        d.Dep.carried

let check_stmt label (s : Stmt_poly.t) =
  let domain = Pom.Hls.Summary.ordered_domain s in
  let write, reads = Pom.Hls.Summary.transformed_accesses s in
  List.iter
    (fun read ->
      let label = label ^ " " ^ Stmt_poly.name s ^ " <- " ^ read.Dep.array in
      let boxes = boxes_of (Dep.analyze ~domain ~source:write ~sink:read) in
      Alcotest.(check (list (pair int (option int))))
        (label ^ ": carried distances")
        (List.map
           (fun (level, box) -> (level, fst (List.nth box (level - 1))))
           boxes)
        (Dep.carried_distances ~domain ~source:write ~sink:read ());
      Alcotest.(check (list (pair int (list (pair (option int) (option int))))))
        (label ^ ": distance boxes")
        (reference_boxes ~domain ~source:write ~sink:read)
        boxes)
    reads

(* The statements named by [only] (all when [None]) after Stage 1, then
   after every statement is realized at [par]. *)
let check_func ?only func =
  let base =
    Prog.apply_all
      (Prog.of_func_unscheduled func)
      (Pom.Dse.Stage1.run func).Pom.Dse.Stage1.directives
  in
  let picked (prog : Prog.t) =
    List.filter
      (fun s ->
        match only with
        | None -> true
        | Some names -> List.mem (Stmt_poly.name s) names)
      prog.Prog.stmts
  in
  Option.iter
    (fun names ->
      Alcotest.(check int) "named statements found" (List.length names)
        (List.length (picked base)))
    only;
  List.iter (check_stmt "stage 1") (picked base);
  List.iter
    (fun par ->
      let hw =
        List.concat_map
          (fun s ->
            let order = Stmt_poly.loop_order s in
            let extents =
              List.map
                (fun d ->
                  match Basic_set.const_range d s.Stmt_poly.domain with
                  | Some lb, Some ub -> ub - lb + 1
                  | _ -> Alcotest.fail "unbounded loop")
                order
            in
            (Pom.Dse.Stage2.realize (Stmt_poly.name s) order extents par)
              .Pom.Dse.Stage2.hw_directives)
          (picked base)
      in
      List.iter
        (check_stmt (Printf.sprintf "par %d" par))
        (picked (Prog.apply_all base hw)))
    [ 1; 4; 16 ]

let differential_cases =
  List.map
    (fun (name, build) ->
      Alcotest.test_case name `Quick (fun () -> check_func (build ())))
    [
      ("gemm-4096", fun () -> P.gemm 4096);
      ("bicg-4096", fun () -> P.bicg 4096);
      ("gesummv-4096", fun () -> P.gesummv 4096);
      ("2mm-4096", fun () -> P.mm2 4096);
      ("3mm-4096", fun () -> P.mm3 4096);
      ("atax-4096", fun () -> P.atax 4096);
      ("mvt-4096", fun () -> P.mvt 4096);
      ("syrk-1024", fun () -> P.syrk 1024);
      ("trmm-1024", fun () -> P.trmm 1024);
      ("jacobi-1d-4096", fun () -> P.jacobi1d 4096);
      ("jacobi-2d-4096", fun () -> P.jacobi2d 4096);
      ("seidel-t8-256", fun () -> P.seidel ~tsteps:8 256);
      ("edge-detect-4096", fun () -> I.edge_detect 4096);
      ("gaussian-4096", fun () -> I.gaussian 4096);
      ("blur-4096", fun () -> I.blur 4096);
    ]
  @ [
      Alcotest.test_case "vgg16 conv and pool" `Quick (fun () ->
          check_func ~only:[ "conv2"; "pool1" ] (D.vgg16 ()));
      Alcotest.test_case "resnet18 residual" `Quick (fun () ->
          check_func ~only:[ "res1_1" ] (D.resnet18 ()));
    ]

let () =
  Alcotest.run "dep"
    [
      ( "unit",
        [
          Alcotest.test_case "GEMM reduction (0,0,1)" `Quick test_gemm_reduction;
          Alcotest.test_case "BICG q accumulation" `Quick test_bicg_q;
          Alcotest.test_case "uniform stencil distance" `Quick test_uniform_stencil;
          Alcotest.test_case "no forward dependence" `Quick test_no_forward_dependence;
          Alcotest.test_case "different arrays" `Quick test_different_arrays;
          Alcotest.test_case "strided parity disjoint" `Quick test_strided_no_conflict;
          Alcotest.test_case "diagonal stencil distance" `Quick test_seidel_diagonal;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_distance_witnessed ]);
      ("differential", differential_cases);
    ]
