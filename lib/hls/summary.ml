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
  carried : (int * int option) list list;
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
   problem the statement poses — not its names, nor the hardware
   attributes the DSE mutates between trials — so it memoizes well across
   a search and across same-shape statements.  The search itself is
   sequential; the mutex keeps this process-global cache safe when the
   compile daemon's executor thread and another thread of the process
   compile at once.  The analysis runs outside the lock (two racing
   callers may compute the same entry twice — the results are equal, last
   write wins).  An entry is the statement's per-read result ({!t.carried};
   [deps] is read off it) and its loop extents in schedule order. *)
let dep_cache : (string, (int * int option) list list * int list) Hashtbl.t =
  Hashtbl.create 256

let dep_cache_lock = Mutex.create ()

let dep_cache_hits = ref 0

let dep_cache_misses = ref 0

(* (hits, misses) since process start; reads under the lock so the pair is
   consistent even while another thread (the daemon's executor) analyzes *)
let dep_cache_stats () =
  Mutex.lock dep_cache_lock;
  let s = (!dep_cache_hits, !dep_cache_misses) in
  Mutex.unlock dep_cache_lock;
  s

(* The key is what the entry is computed from, and no name: the analysis's
   problem ({!Dep.key} over the domain in schedule order) and the
   domain's own dimension tuple, in whose order the extents' projections
   eliminate. *)
let memo_key (s : Stmt_poly.t) =
  let write, reads = transformed_accesses s in
  Dep.key ~domain:(ordered_domain s) ~write ~reads
  ^ Pom_wire.Wire.to_string
      (Pom_wire.Wire.list Pom_wire.Wire.string)
      (Basic_set.dims s.Stmt_poly.domain)

let memo (s : Stmt_poly.t) compute =
  let key = memo_key s in
  Mutex.lock dep_cache_lock;
  let cached = Hashtbl.find_opt dep_cache key in
  (match cached with
  | Some _ -> incr dep_cache_hits
  | None -> incr dep_cache_misses);
  Mutex.unlock dep_cache_lock;
  match cached with
  | Some entry -> entry
  | None ->
      let entry = compute () in
      Mutex.lock dep_cache_lock;
      if Hashtbl.length dep_cache > 20_000 then Hashtbl.reset dep_cache;
      Hashtbl.replace dep_cache key entry;
      Mutex.unlock dep_cache_lock;
      entry

type retiling = Same | Split of int | Tile of int

(* The level rule (DESIGN.md, "Dependences of a re-tiled statement"): the
   parent's first band level, how many levels the band adds, and the
   child's band levels.  Strip-mining is a bijection on the instances, and
   [(x / f, x mod f)] is equal for two instances exactly when [x] is, so a
   level outside the band keeps its parent's conflict set, renumbered past
   the band's new levels.  Each band level is listed with the parent level
   its conflict is a subset of: it is tested only when that level
   carries.  A tile's second outer
   level ([None]) is always tested — with the first dimension's outer tiles
   equal, the tile may order two instances against their parent order, so
   no parent level bounds its conflict. *)
let band_of = function
  | Same -> (0, 0, [])
  | Split l -> (l, 1, [ (l, Some l); (l + 1, Some l) ])
  | Tile l ->
      ( l,
        2,
        [ (l, Some l); (l + 1, None); (l + 2, Some l); (l + 3, Some (l + 1)) ]
      )

(* The write against each read: analyzed over every level, or derived
   from [parent]'s per-read results by the level rule. *)
let analyze_carried ?parent (s : Stmt_poly.t) =
  let domain = ordered_domain s in
  let write, reads = transformed_accesses s in
  let carried_distances ?levels read =
    Dep.carried_distances ?levels ~domain ~source:write ~sink:read ()
  in
  match parent with
  | None -> List.map carried_distances reads
  | Some (parent, retiling) ->
      let first, width, band = band_of retiling in
      List.map2
        (fun levels read ->
          let copied =
            List.filter_map
              (fun (k, d) ->
                if k < first then Some (k, d)
                else if k >= first + width then Some (k + width, d)
                else None)
              levels
          in
          let tested =
            List.filter_map
              (fun (level, refines) ->
                match refines with
                | Some k when not (List.mem_assoc k levels) -> None
                | _ -> Some level)
              band
          in
          List.merge
            (fun (a, _) (b, _) -> Int.compare a b)
            copied
            (carried_distances ~levels:tested read))
        parent.carried reads

(* Each level's bounding trip count, in schedule order. *)
let extents_of (s : Stmt_poly.t) =
  List.map
    (fun dim ->
      match Basic_set.const_range dim s.Stmt_poly.domain with
      | Some l, Some u -> u - l + 1
      | _ ->
          invalid_arg
            (Printf.sprintf "Summary: unbounded dimension %s in %s" dim
               (Stmt_poly.name s)))
    (Sched.dims s.Stmt_poly.sched)

(* The loop structure: extents and hardware attributes per level. *)
let loops_with (s : Stmt_poly.t) extents =
  List.map2
    (fun dim extent ->
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
    extents

let loops_of s = loops_with s (extents_of s)

let build (s : Stmt_poly.t) ~carried loops =
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
    deps =
      List.filter_map
        (function
          | [] -> None
          | levels ->
              Some
                (List.filter_map
                   (fun (level, dmin) -> Option.map (fun d -> (level, d)) dmin)
                   levels))
        carried;
    carried;
    group = Sched.const_at s.Stmt_poly.sched 0;
    access_dims;
    rectangular;
  }

(* Only a re-tiling reaches the memo: a [Same] statement poses its
   parent's problem, whose answer the parent's own profile settled. *)
let of_stmt ?parent (s : Stmt_poly.t) =
  let carried, extents =
    match parent with
    | Some (parent, Same) ->
        (parent.carried, List.map (fun l -> l.extent) parent.loops)
    | _ ->
        memo s (fun () ->
            let carried = analyze_carried ?parent s in
            (carried, extents_of s))
  in
  build s ~carried (loops_with s extents)

let unanalyzed s = build s ~carried:[] (loops_of s)

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
