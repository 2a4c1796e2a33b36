open Pom_poly
open Pom_dsl
open Pom_polyir

type loop = {
  dim : string;
  extent : int;
  unroll : int;
  pipelined : bool;
  target_ii : int;
}

type dep = (int * int) list

type t = {
  stmt : Stmt_poly.t;
  loops : loop list;
  total_points : int;
  body : Opchar.body;
  deps : dep list;
  group : int;
  access_dims : (string * string list list) list;
  rectangular : bool;
}

let transformed_accesses (s : Stmt_poly.t) =
  let remap (a : Dep.access) =
    {
      a with
      Dep.indices = List.map (Linexpr.subst_all s.Stmt_poly.index_map) a.indices;
    }
  in
  ( remap (Compute.write_access s.Stmt_poly.compute),
    List.map remap (Compute.read_accesses s.Stmt_poly.compute) )

(* Domain with the dimension tuple reordered to schedule order, so that
   Dep.analyze's lexicographic levels coincide with loop levels. *)
let ordered_domain (s : Stmt_poly.t) =
  Basic_set.make (Sched.dims s.Stmt_poly.sched)
    (Basic_set.constraints s.Stmt_poly.domain)

(* Dependence analysis dominates profiling cost and depends only on the
   domain, schedule, and index map — not the hardware attributes the DSE
   mutates between trials — so it memoizes well across a search.  The
   search itself is sequential; the mutex keeps this process-global cache
   safe for callers on other domains or threads.  The analysis runs outside
   the lock (two racing callers may compute the same entry twice — the
   results are equal, last write wins). *)
let dep_cache : (string, dep list) Hashtbl.t = Hashtbl.create 256

let dep_cache_lock = Mutex.create ()

let dep_cache_hits = ref 0

let dep_cache_misses = ref 0

(* (hits, misses) since process start; reads under the lock so the pair is
   consistent even while worker domains are analyzing *)
let dep_cache_stats () =
  Mutex.lock dep_cache_lock;
  let s = (!dep_cache_hits, !dep_cache_misses) in
  Mutex.unlock dep_cache_lock;
  s

let analyze_deps_uncached (s : Stmt_poly.t) =
  let domain = ordered_domain s in
  let write, reads = transformed_accesses s in
  List.concat_map
    (fun read ->
      match Dep.carried_distances ~domain ~source:write ~sink:read with
      | [] -> []
      | levels ->
          [
            List.filter_map
              (fun (level, dmin) -> Option.map (fun d -> (level, d)) dmin)
              levels;
          ])
    reads

let analyze_deps (s : Stmt_poly.t) =
  let key = Format.asprintf "%a" Stmt_poly.pp { s with Stmt_poly.hw = Stmt_poly.no_hw } in
  Mutex.lock dep_cache_lock;
  let cached = Hashtbl.find_opt dep_cache key in
  (match cached with
  | Some _ -> incr dep_cache_hits
  | None -> incr dep_cache_misses);
  Mutex.unlock dep_cache_lock;
  match cached with
  | Some deps -> deps
  | None ->
      let deps = analyze_deps_uncached s in
      Mutex.lock dep_cache_lock;
      if Hashtbl.length dep_cache > 20_000 then Hashtbl.reset dep_cache;
      Hashtbl.replace dep_cache key deps;
      Mutex.unlock dep_cache_lock;
      deps

(* The loop structure alone: extents and hardware attributes per level, in
   schedule order, without the dependence analysis {!of_stmt} adds. *)
let loops_of (s : Stmt_poly.t) =
  List.map
    (fun dim ->
      let lb, ub = Basic_set.const_range dim s.Stmt_poly.domain in
      let extent =
        match (lb, ub) with
        | Some l, Some u -> u - l + 1
        | _ ->
            invalid_arg
              (Printf.sprintf "Summary: unbounded dimension %s in %s" dim
                 (Stmt_poly.name s))
      in
      let unroll =
        match List.assoc_opt dim s.Stmt_poly.hw.Stmt_poly.unrolls with
        | Some f -> min f extent
        | None -> 1
      in
      let pipelined, target_ii =
        match s.Stmt_poly.hw.Stmt_poly.pipeline with
        | Some (d, ii) when d = dim -> (true, ii)
        | _ -> (false, 1)
      in
      { dim; extent; unroll; pipelined; target_ii })
    (Sched.dims s.Stmt_poly.sched)

let of_stmt (s : Stmt_poly.t) =
  let loops = loops_of s in
  let write, reads = transformed_accesses s in
  let access_dims =
    List.map
      (fun (a : Dep.access) ->
        (a.Dep.array, List.map Linexpr.dims a.Dep.indices))
      (write :: reads)
  in
  let total_points = Compute.trip_count s.Stmt_poly.compute in
  let rectangular =
    total_points = List.fold_left (fun a l -> a * l.extent) 1 loops
  in
  {
    stmt = s;
    loops;
    total_points;
    body = Opchar.analyze_body s.Stmt_poly.compute;
    deps = analyze_deps s;
    group = Sched.const_at s.Stmt_poly.sched 0;
    access_dims;
    rectangular;
  }

let profile stmts = List.map of_stmt stmts

let profile_all prog = profile prog.Prog.stmts

let pipeline_level t =
  let rec go k = function
    | [] -> None
    | l :: rest -> if l.pipelined then Some k else go (k + 1) rest
  in
  go 1 t.loops

let pp ppf t =
  Format.fprintf ppf "@[<v 2>%s (group %d, %d points):@,%a@,deps: %s@]"
    (Stmt_poly.name t.stmt) t.group t.total_points
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf l ->
         Format.fprintf ppf "%s extent=%d unroll=%d%s" l.dim l.extent l.unroll
           (if l.pipelined then Printf.sprintf " pipeline(II=%d)" l.target_ii
            else "")))
    t.loops
    (String.concat "; "
       (List.map
          (fun d ->
            String.concat ","
              (List.map (fun (l, dist) -> Printf.sprintf "L%d:%d" l dist) d))
          t.deps))
