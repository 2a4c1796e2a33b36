open Pom_dsl
open Pom_polyir
open Pom_hls

(* ---- per-statement pragma checks against the dependence structure ---- *)

let carried_at deps level =
  List.find_map (fun dep -> List.assoc_opt level dep) deps

let lint_pipeline ~loc (p : Summary.t) =
  match Summary.pipeline_level p with
  | None -> []
  | Some level ->
      let loop = List.nth p.Summary.loops (level - 1) in
      let mii = Latency.recurrence_mii ~level p in
      if loop.Summary.target_ii < mii then
        [
          Diagnostic.warning ~code:"POM201"
            ~loc:(loc @ [ "loop " ^ loop.Summary.dim ])
            ~note:
              (Printf.sprintf
                 "request pipeline_ii >= %d, or transform the recurrence away \
                  (interchange/skew) before pipelining this level"
                 mii)
            (Printf.sprintf
               "pipeline_ii %d is unachievable: a loop-carried dependence \
                forces II >= %d"
               loop.Summary.target_ii mii);
        ]
      else []

let lint_unrolls ~loc (p : Summary.t) =
  List.concat
    (List.mapi
       (fun i (l : Summary.loop) ->
         let level = i + 1 in
         if l.Summary.unroll <= 1 then []
         else
           let serial =
             (* a FULL unroll of a carried level is the standard reduction
                idiom — the loop dissolves into a dependence chain inside
                the enclosing pipeline body, and the QoR model prices that
                chain (see Latency.rec_mii).  Only a partial unroll leaves
                the loop standing with serialized copies. *)
             match
               if l.Summary.unroll >= l.Summary.extent then None
               else carried_at p.Summary.deps level
             with
             | Some dist ->
                 [
                   Diagnostic.warning ~code:"POM202"
                     ~loc:(loc @ [ "loop " ^ l.Summary.dim ])
                     ~note:
                       "unroll a dependence-free level instead; these copies \
                        execute as a serial chain"
                     (Printf.sprintf
                        "unroll %d serializes: the level carries a dependence \
                         of distance %d"
                        l.Summary.unroll dist);
                 ]
             | None -> []
           in
           let remainder =
             if l.Summary.extent mod l.Summary.unroll <> 0 then
               [
                 Diagnostic.warning ~code:"POM205"
                   ~loc:(loc @ [ "loop " ^ l.Summary.dim ])
                   ~note:"pick a factor dividing the trip count"
                   (Printf.sprintf
                      "unroll %d does not divide trip count %d: remainder \
                       iterations serialize"
                      l.Summary.unroll l.Summary.extent);
               ]
             else []
           in
           let conflict =
             if l.Summary.pipelined then
               [
                 Diagnostic.warning ~code:"POM206"
                   ~loc:(loc @ [ "loop " ^ l.Summary.dim ])
                   ~note:"full unrolling dissolves the loop a pipeline needs"
                   "conflicting directives: pipeline and unroll on the same \
                    loop";
               ]
             else []
           in
           serial @ remainder @ conflict)
       p.Summary.loops)

(* ---- bank-conflict check: port demand of the unrolled body vs banks ---- *)

(* The access model of {!Latency.res_mii} over the unrolled body:
   an access contributes one port operation per unrolled copy it actually
   varies with, and a partition factor multiplies the reachable banks only
   along dimensions the index varies on.  Each bank is dual-ported. *)
let lint_ports ~loc ~partitions (p : Summary.t) =
  let seen = Hashtbl.create 4 in
  List.concat_map
    (fun ((array, _) as access) ->
      let ops, banks =
        Latency.access_ports ~partitions ~loops:p.Summary.loops access
      in
      if ops > 2 * banks && not (Hashtbl.mem seen array) then begin
        Hashtbl.add seen array ();
        [
          Diagnostic.warning ~code:"POM203"
            ~loc:(loc @ [ "array " ^ array ])
            ~note:
              (Printf.sprintf
                 "partition %s along the unrolled dimensions (need >= %d \
                  banks for II=1)"
                 array
                 ((ops + 1) / 2))
            (Printf.sprintf
               "%d concurrent accesses from the unrolled body, but the \
                partitioning serves %d ports (%d banks x 2)"
               ops (2 * banks) banks);
        ]
      end
      else [])
    p.Summary.access_dims

(* ---- array-level directive checks ---- *)

let lint_partitions (prog : Prog.t) profiles =
  let fname = Func.name prog.Prog.func in
  let placeholders = Func.placeholders prog.Prog.func in
  List.concat_map
    (fun (array, (factors, _kind)) ->
      let loc = [ fname; "array " ^ array ] in
      match
        List.find_opt
          (fun (p : Placeholder.t) -> p.Placeholder.name = array)
          placeholders
      with
      | None ->
          [
            Diagnostic.error ~code:"POM207" ~loc
              ~note:"remove the directive or fix the array name"
              "partition directive names an array no compute accesses";
          ]
      | Some p when List.length factors <> Placeholder.rank p ->
          [
            Diagnostic.error ~code:"POM207" ~loc
              (Printf.sprintf
                 "partition has %d factors for a rank-%d array"
                 (List.length factors) (Placeholder.rank p));
          ]
      | Some p ->
          List.concat
            (List.mapi
               (fun k f ->
                 let extent = List.nth p.Placeholder.shape k in
                 if f <= 0 then
                   [
                     Diagnostic.error ~code:"POM207" ~loc
                       (Printf.sprintf "non-positive partition factor %d" f);
                   ]
                 else if f > 1 && extent mod f <> 0 then
                   [
                     Diagnostic.warning ~code:"POM205" ~loc
                       ~note:"pick a factor dividing the array extent"
                       (Printf.sprintf
                          "partition factor %d does not divide extent %d: \
                           banks are uneven"
                          f extent);
                   ]
                 else if f > 1 then
                   (* dead-partition check: some unrolled access must vary
                      along dimension [k] for the banks to add ports *)
                   let fed =
                     List.exists
                       (fun (prof : Summary.t) ->
                         let unrolled =
                           List.filter_map
                             (fun (l : Summary.loop) ->
                               if l.Summary.unroll > 1 then
                                 Some l.Summary.dim
                               else None)
                             prof.Summary.loops
                         in
                         List.exists
                           (fun (a, per_dim) ->
                             a = array
                             &&
                             match List.nth_opt per_dim k with
                             | Some dims ->
                                 List.exists
                                   (fun d -> List.mem d unrolled)
                                   dims
                             | None -> false)
                           prof.Summary.access_dims)
                       profiles
                   in
                   if fed then []
                   else
                     [
                       Diagnostic.hint ~code:"POM204" ~loc
                         ~note:
                           "no unrolled access varies along this dimension; \
                            the banks add hardware but no concurrency"
                         (Printf.sprintf "partition factor %d on dim %d is \
                                          dead" f k);
                     ]
                 else [])
               factors))
    prog.Prog.partitions

let lint_profiles prog =
  let fname = Func.name prog.Prog.func in
  let partitions = Prog.partition_of prog in
  let profiles = Summary.profile_all prog in
  let per_stmt =
    List.concat_map
      (fun (p : Summary.t) ->
        let loc = [ fname; Stmt_poly.name p.Summary.stmt ] in
        lint_pipeline ~loc p @ lint_unrolls ~loc p
        @ lint_ports ~loc ~partitions p)
      profiles
  in
  per_stmt @ lint_partitions prog profiles

let lint prog =
  match lint_profiles prog with
  | ds -> Diagnostic.sort ds
  | exception Invalid_argument m ->
      [
        Diagnostic.error ~code:"POM200"
          ~loc:[ Func.name prog.Prog.func ]
          (Printf.sprintf "lint could not analyze the program: %s" m);
      ]

(* ---- the DSE pre-pruning oracle ---- *)

type hw_signature = (string * (string * int * int * bool * int) list) list

let signature_of named_loops : hw_signature =
  List.sort compare
    (List.map
       (fun (name, loops) ->
         ( name,
           List.map
             (fun (l : Summary.loop) ->
               ( l.Summary.dim,
                 l.Summary.extent,
                 l.Summary.unroll,
                 l.Summary.pipelined,
                 l.Summary.target_ii ))
             loops ))
       named_loops)

let hw_signature (prog : Prog.t) =
  signature_of
    (List.map
       (fun s -> (Stmt_poly.name s, Summary.loops_of s))
       prog.Prog.stmts)

let profiles_signature profiles =
  signature_of
    (List.map
       (fun (p : Summary.t) -> (Stmt_poly.name p.Summary.stmt, p.Summary.loops))
       profiles)
