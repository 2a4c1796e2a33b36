open Pom_dsl
open Pom_polyir
open Pom_hls
module Memo = Pom_pipeline.Memo
module Checkpoint = Pom_resilience.Checkpoint

(* read by perfbench/cold.ml *)
type sched = { chunks : int; steals : int; splits : int }

type result = {
  directives : Schedule.t list;
  prog : Prog.t;
  report : Report.t;
  iterations : int;
  tile_vectors : (string * int list) list;
  trace : string list;
  evaluations : int;
  pruned : int;
  sched : sched;  (* read by perfbench/cold.ml *)
}

(* ---- parallelism realization for one compute ---- *)

(* Split [par] parallel copies over the two innermost levels: prefer a
   balanced [.., f_prev, f_last] spread (the paper's [1, 2, 16]-style
   vectors) over a single wide unroll when the nest is deep enough. *)
let factor_split ~depth ~e_prev ~e_last par =
  let inner_cap = if depth >= 3 then 16 else 32 in
  let f_last = min (min par e_last) inner_cap in
  let f_prev = if depth >= 2 then min (min (par / f_last) e_prev) 16 else 1 in
  (f_prev, f_last)

type realization = {
  hw_directives : Schedule.t list;
  tile_vector : int list;  (* factor per (post-stage-1) loop level *)
}

let realize cname order extents par =
  let d = List.length order in
  let nth = List.nth in
  let e_last = nth extents (d - 1) in
  let e_prev = if d >= 2 then nth extents (d - 2) else 1 in
  let l_last = nth order (d - 1) in
  let l_prev = if d >= 2 then nth order (d - 2) else l_last in
  let f_prev, f_last = factor_split ~depth:d ~e_prev ~e_last par in
  let vector =
    List.mapi
      (fun i _ ->
        if i = d - 1 then f_last else if i = d - 2 then f_prev else 1)
      order
  in
  let pipe dim = Schedule.pipeline cname dim 1 in
  let dirs =
    match (f_prev, f_last) with
    | 1, 1 -> [ pipe l_last ]
    | 1, f when f < e_last ->
        [
          Schedule.split cname l_last f (l_last ^ "_o") (l_last ^ "_i");
          pipe (l_last ^ "_o");
          Schedule.unroll cname (l_last ^ "_i") f;
        ]
    | 1, _ ->
        (* full unroll of the innermost level *)
        Schedule.unroll cname l_last e_last
        :: (if d >= 2 then [ pipe l_prev ] else [])
    | fp, fl when fl < e_last ->
        [
          Schedule.tile cname l_prev l_last fp fl (l_prev ^ "_o")
            (l_last ^ "_o") (l_prev ^ "_i") (l_last ^ "_i");
          pipe (l_last ^ "_o");
          Schedule.unroll cname (l_prev ^ "_i") fp;
          Schedule.unroll cname (l_last ^ "_i") fl;
        ]
    | fp, _ when fp < e_prev ->
        [
          Schedule.split cname l_prev fp (l_prev ^ "_o") (l_prev ^ "_i");
          pipe (l_prev ^ "_o");
          Schedule.unroll cname (l_prev ^ "_i") fp;
          Schedule.unroll cname l_last e_last;
        ]
    | _, _ ->
        (* both innermost levels fully unrolled *)
        [ Schedule.unroll cname l_prev e_prev; Schedule.unroll cname l_last e_last ]
        @ (if d >= 3 then [ pipe (nth order (d - 3)) ] else [])
  in
  { hw_directives = dirs; tile_vector = vector }

(* ---- array partitioning matched to the unrolled dimensions ---- *)

(* A profile's [access_dims] are its accesses' index dimensions, so the
   plan reads them instead of re-deriving the accesses. *)
let partition_plan ?(bank_cap = 64) func profiles =
  let demand : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  let placeholders = Func.placeholders func in
  List.iter
    (fun (p : Placeholder.t) ->
      Hashtbl.replace demand p.Placeholder.name
        (Array.make (Placeholder.rank p) 1))
    placeholders;
  List.iter
    (fun (p : Summary.t) ->
      let unrolls = p.Summary.stmt.Stmt_poly.hw.Stmt_poly.unrolls in
      if unrolls <> [] then
        List.iter
          (fun (array, per_dim) ->
            match Hashtbl.find_opt demand array with
            | None -> ()
            | Some factors ->
                List.iteri
                  (fun k dims ->
                    List.iter
                      (fun (dim, f) ->
                        if List.mem dim dims && f > factors.(k) then
                          factors.(k) <- f)
                      unrolls)
                  per_dim)
          p.Summary.access_dims)
    profiles;
  (* Bank budget: beyond ~64 banks per array the crossbar cost outweighs
     the port gain; shed factors by halving the widest dimension, trading a
     slightly larger II for feasible muxing (the paper's BICG lands at II=2
     through exactly this trade). *)
  let cap_banks factors =
    let fs = Array.of_list factors in
    let product () = Array.fold_left ( * ) 1 fs in
    while product () > bank_cap do
      let widest = ref 0 in
      Array.iteri (fun k f -> if f > fs.(!widest) then widest := k) fs;
      fs.(!widest) <- max 1 (fs.(!widest) / 2)
    done;
    Array.to_list fs
  in
  List.filter_map
    (fun (p : Placeholder.t) ->
      let factors = Array.to_list (Hashtbl.find demand p.Placeholder.name) in
      let factors =
        List.map2 (fun f extent -> min f (min extent 64)) factors
          p.Placeholder.shape
      in
      let factors = cap_banks factors in
      if List.exists (fun f -> f > 1) factors then
        Some (Schedule.partition p.Placeholder.name factors Schedule.Cyclic)
      else None)
    placeholders

(* ---- optimization units (fusion groups) ---- *)

type unit_state = {
  id : int;  (* leading schedule constant *)
  members : (string * string list * int list) list;
      (* compute, loop order, extents after stage 1 *)
  stage1 : Summary.t list;  (* the members' stage-1 statements, profiled *)
  mutable par : int;
  mutable active : bool;
  mutable realization : realization list;  (* one per member *)
  mutable realized : (Stmt_poly.t * Summary.t) list;
      (* one per member: its statement under [realization], profiled *)
}

let member_info (p : Summary.t) =
  ( Stmt_poly.name p.Summary.stmt,
    List.map (fun (l : Summary.loop) -> l.Summary.dim) p.Summary.loops,
    List.map (fun (l : Summary.loop) -> l.Summary.extent) p.Summary.loops )

(* How [dirs] (one member's {!realize} output) re-tile its stage-1
   statement [s]: at most one split or tile, the rest hardware. *)
let retiling (s : Stmt_poly.t) dirs =
  let level d = Option.get (Pom_poly.Sched.level_of s.Stmt_poly.sched d) in
  List.fold_left
    (fun r -> function
      | Schedule.Split { dim; _ } -> Summary.Split (level dim)
      | Schedule.Tile { d1; _ } -> Summary.Tile (level d1)
      | _ -> r)
    Summary.Same dirs

(* Realize [u] at its current parallelism: fold each member's own hardware
   directives over its own statement, and profile it from its stage-1
   profile.  This is exact: {!realize} emits split, tile, pipeline and
   unroll directives that each name their own member, so no other
   statement can change. *)
let realize_unit u =
  u.realization <-
    List.map (fun (c, order, extents) -> realize c order extents u.par) u.members;
  u.realized <-
    List.map2
      (fun (p : Summary.t) r ->
        let s =
          List.hd
            (List.fold_left Transform.apply_directive [ p.Summary.stmt ]
               r.hw_directives)
        in
        let parent = (p, retiling p.Summary.stmt r.hw_directives) in
        (s, Summary.of_stmt ~parent s))
      u.stage1 u.realization

let units_of (prog : Prog.t) =
  let group (s : Stmt_poly.t) = Pom_poly.Sched.const_at s.Stmt_poly.sched 0 in
  let ids = List.sort_uniq Int.compare (List.map group prog.Prog.stmts) in
  List.map
    (fun id ->
      let stage1 =
        Summary.profile (List.filter (fun s -> group s = id) prog.Prog.stmts)
      in
      let u =
        {
          id;
          members = List.map member_info stage1;
          stage1;
          par = 1;
          active = true;
          realization = [];
          realized = [];
        }
      in
      realize_unit u;
      u)
    ids

(* A unit's parallelism degree is bounded by each member's two innermost
   extents' product and by this cap per node. *)
let par_cap = 64

let max_par u =
  List.fold_left
    (fun acc (_, order, extents) ->
      let d = List.length order in
      let e_last = List.nth extents (d - 1) in
      let e_prev = if d >= 2 then List.nth extents (d - 2) else 1 in
      min acc (min par_cap (e_last * e_prev)))
    par_cap u.members

(* Every way a candidate is backed out — pruned, rejected, failed, out of
   budget — goes through the one restore here. *)
let try_move u par decide =
  let par0 = u.par and realization0 = u.realization and realized0 = u.realized in
  let restore () =
    u.par <- par0;
    u.realization <- realization0;
    u.realized <- realized0
  in
  match
    u.par <- par;
    realize_unit u;
    decide ()
  with
  | true -> true
  | false ->
      restore ();
      false
  | exception e ->
      restore ();
      raise e

(* ---- the candidate step both searches take ---- *)

let hw_directives units =
  List.concat_map
    (fun u -> List.concat_map (fun r -> r.hw_directives) u.realization)
    units

let splice (prog : Prog.t) units =
  let realized = List.concat_map (fun u -> u.realized) units in
  let pairs =
    List.map
      (fun s ->
        List.find
          (fun (r, _) -> Stmt_poly.name r = Stmt_poly.name s)
          realized)
      prog.Prog.stmts
  in
  ({ prog with Prog.stmts = List.map fst pairs }, List.map snd pairs)

(* ---- the checkpoint journal ---- *)

(* A search's journal: the open file, and a table of the design points it
   holds, the replayed ones and those priced since.  A record's key is a
   digest of the point's identity: the function fingerprint, the full
   directive list, the device, the composition and the latency mode.  Its
   payload is the wire-encoded report, the schema {!Checkpoint.version}
   covers.  The program is not recorded: a resumed search rebuilds it from
   its own units. *)
type journal = {
  file : Report.t Checkpoint.t;
  fkey : string;
  context : string;  (* device, composition, latency mode *)
  points : (string, Report.t) Hashtbl.t;
}

(* Open the journal at [path] and load its intact records into the
   search's table, with the trace notes saying what happened. *)
let open_journal ~device ~composition ~latency_mode func path =
  match Checkpoint.load Wirec.report path with
  | None, _, notes -> (None, notes)
  | Some file, records, notes ->
      let points = Hashtbl.create 64 in
      List.iter
        (fun (key, report) -> Hashtbl.replace points key report)
        records;
      let context =
        String.concat "##"
          [
            Memo.device_key device;
            (match composition with
            | Resource.Reuse -> "reuse"
            | Resource.Dataflow -> "dataflow");
            (match latency_mode with
            | `Sequential -> "sequential"
            | `Dataflow -> "dataflow");
          ]
      in
      let note =
        if records <> [] then
          Printf.sprintf "checkpoint: replayed %d design points from %s"
            (List.length records) path
        else Printf.sprintf "checkpoint: journaling design points to %s" path
      in
      ( Some { file; fkey = Memo.func_key func; context; points },
        notes @ [ note ] )

(* A journaled design point is served from the table; any other is priced,
   appended and kept. *)
let journaled j directives price =
  let key =
    Digest.string
      (String.concat "##" [ j.fkey; Memo.directives_key directives; j.context ])
  in
  match Hashtbl.find_opt j.points key with
  | Some report -> report
  | None ->
      let report = price () in
      Checkpoint.append j.file ~key report;
      Hashtbl.replace j.points key report;
      report

type search = {
  prog_base : Prog.t;  (* the base directives applied *)
  units : unit_state list;
  prices : Report.prices;  (* the search's own: dies with it *)
  price : Prog.t * Summary.t list -> Prog.t * Schedule.t list * Report.t;
      (* one counted evaluation of a splice of [units] *)
  evaluations : int ref;
  mutable pruned : int;
  mutable incumbent : Prog.t * Schedule.t list * Report.t;
  mutable signature : Pom_analysis.Lint.hw_signature;  (* the incumbent's *)
  notes : string list;  (* the checkpoint journal's *)
}

type outcome =
  | Accepted
  | Rejected of Report.t
  | Pruned
  | Failed of exn
  | Out_of_budget of string

let start ?bank_cap ?(latency_mode = `Sequential) ?checkpoint ~device
    ~composition func base f =
  (* Journal every priced design point; on resume the intact records serve
     the points they hold, so the search re-derives the exact decision
     sequence of the uninterrupted search. *)
  let journal, notes =
    match checkpoint with
    | None -> (None, [])
    | Some path ->
        open_journal ~device ~composition ~latency_mode func path
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (fun j -> Checkpoint.close j.file) journal)
  @@ fun () ->
  let prog_base = Prog.apply_all (Prog.of_func_unscheduled func) base in
  let units = units_of prog_base in
  let prices = Report.prices () in
  let evaluations = ref 0 in
  (* Price the design point a splice of the units describes: its partition
     plan comes from the spliced profiles, and the search's group-price
     table prices the partitioned program from them. *)
  let price ((prog_hw : Prog.t), profiles) =
    incr evaluations;
    (* the per-evaluation fault site: [kill] here simulates the process
       dying on the Nth evaluation (the kill-and-resume test) *)
    Pom_resilience.Fault.point "dse:evaluate";
    Pom_resilience.Budget.check "dse:evaluate";
    let parts = partition_plan ?bank_cap prog_hw.Prog.func profiles in
    let prog = List.fold_left Prog.apply prog_hw parts in
    let directives = base @ hw_directives units @ parts in
    let synthesize () =
      Report.of_profiles ~prices ~composition ~latency_mode ~device prog
        profiles
    in
    let report =
      match journal with
      | None -> synthesize ()
      | Some j -> journaled j directives synthesize
    in
    (prog, directives, report)
  in
  let spliced = splice prog_base units in
  let incumbent = price spliced in
  let signature = Pom_analysis.Lint.profiles_signature (snd spliced) in
  f
    {
      prog_base;
      units;
      prices;
      price;
      evaluations;
      pruned = 0;
      incumbent;
      signature;
      notes;
    }

(* The candidate's realization, its pruning check, its evaluation and the
   caller's rule fail together: [try_move] backs any failure out. *)
let step s u par ~accept =
  let outcome = ref Pruned in
  let decide () =
    let ((_, profiles) as spliced) = splice s.prog_base s.units in
    let signature = Pom_analysis.Lint.profiles_signature profiles in
    if signature = s.signature then begin
      (* factor clamping collapsed the request onto the incumbent's
         realization: identical hardware, identical QoR — skip the
         synthesis entirely *)
      s.pruned <- s.pruned + 1;
      false
    end
    else begin
      let ((prog, _, report) as trial) = s.price spliced in
      if accept prog report then begin
        s.incumbent <- trial;
        s.signature <- signature;
        outcome := Accepted;
        true
      end
      else begin
        outcome := Rejected report;
        false
      end
    end
  in
  match try_move u par decide with
  | (_ : bool) -> !outcome
  | exception (Pom_resilience.Fault.Killed _ as e) ->
      (* simulated process death: never absorbed *)
      raise e
  | exception Pom_resilience.Budget.Budget_exceeded { reason; _ }
    when Pom_resilience.Policy.degrading () ->
      (* out of time mid-search: the incumbent is a complete, legal design
         point, so the caller may stop there rather than lose the compile *)
      Out_of_budget reason
  | exception e when Pom_resilience.Policy.degrading () ->
      (* one broken candidate must not sink the search (POM304) *)
      Failed e

let units s = s.units
let prices s = s.prices
let incumbent s = s.incumbent
let evaluations s = !(s.evaluations)
let pruned s = s.pruned
let journal_notes s = s.notes

let tile_vectors s =
  List.concat_map
    (fun u ->
      List.map2 (fun (c, _, _) r -> (c, r.tile_vector)) u.members u.realization)
    s.units

(* ---- the bottleneck-oriented search ---- *)

let unit_latency (report : Report.t) u =
  Option.value ~default:0 (List.assoc_opt u.id report.Report.group_latencies)

(* Each data path as the indices of the units it crosses, in path order
   without repeats.  Units never change membership during a search, so
   this is computed once per search, not once per iteration. *)
let unit_paths paths units =
  let unit_of = Hashtbl.create 64 in
  Array.iteri
    (fun i u ->
      List.iter
        (fun (c, _, _) ->
          if not (Hashtbl.mem unit_of c) then Hashtbl.add unit_of c i)
        u.members)
    units;
  Array.of_list
    (List.map
       (fun path ->
         let crossed =
           List.fold_left
             (fun acc c ->
               match Hashtbl.find_opt unit_of c with
               | Some i when not (List.mem i acc) -> i :: acc
               | _ -> acc)
             [] path
         in
         Array.of_list (List.rev crossed))
       paths)

(* Paths ordered by latency, heaviest first and ties in path order: the
   critical path is the first that still holds an active unit, so it is
   the heaviest such path, the earliest of equal weight.  Its bottleneck
   is its first active unit of maximum latency. *)
let bottleneck ~report ~active units paths =
  let latency = Array.map (unit_latency report) units in
  let critical = ref None in
  Array.iter
    (fun path ->
      let pick =
        Array.fold_left
          (fun pick i ->
            match pick with
            | _ when not (active i) -> pick
            | Some b when latency.(i) <= latency.(b) -> pick
            | _ -> Some i)
          None path
      in
      match pick with
      | None -> ()
      | Some i -> (
          let weight = Array.fold_left (fun acc i -> acc + latency.(i)) 0 path in
          match !critical with
          | Some (w, _) when weight <= w -> ()
          | _ -> critical := Some (weight, i)))
    paths;
  Option.map snd !critical

let default_steps par = [ par * 2; par * 3 / 2 ]

(* The search's iteration cap.  Of the bundled workloads only ResNet-18
   reaches it; its pinned design depends on it. *)
let max_iterations = 60

let run ?(device = Device.xc7z020) ?(composition = Resource.Reuse) ?bank_cap
    ?(steps = default_steps) ?checkpoint func (stage1 : Stage1.t) =
  start ?bank_cap ?checkpoint ~device ~composition func
    stage1.Stage1.directives
  @@ fun s ->
  let units = s.units in
  let unit_array = Array.of_list units in
  let paths = unit_paths stage1.Stage1.paths unit_array in
  let latency () =
    let _, _, report = s.incumbent in
    report.Report.latency
  in
  let trace = ref [] in
  let log fmt = Format.kasprintf (fun m -> trace := m :: !trace) fmt in
  List.iter (fun m -> log "%s" m) s.notes;
  List.iter
    (fun u ->
      log "unit g%d {%s}: max parallelism %d" u.id
        (String.concat ", " (List.map (fun (c, _, _) -> c) u.members))
        (max_par u))
    units;
  let iterations = ref 0 in
  let continue_ = ref true in
  let critical () =
    let _, _, report = s.incumbent in
    Option.map (Array.get unit_array)
      (bottleneck ~report ~active:(fun i -> unit_array.(i).active) unit_array
         paths)
  in
  while !continue_ && !iterations < max_iterations do
    incr iterations;
    match critical () with
    | None -> continue_ := false
    | Some u ->
        (* escalate by doubling; when the doubled design no longer fits or
           helps, retry once with a 1.5x step before giving up on the
           node (the exit mechanism).  [try_par] is true when it settles
           the iteration: the step was accepted or the budget ran out. *)
        let try_par par =
          if par <= u.par || par > max_par u then false
          else begin
            let from = u.par and before = latency () in
            let accept _ (trial : Report.t) =
              trial.Report.feasible && trial.Report.latency < before
            in
            match step s u par ~accept with
            | Accepted ->
                log
                  "iter %d: bottleneck g%d par %d -> %d accepted (%d -> %d \
                   cycles)"
                  !iterations u.id from par before (latency ());
                true
            | Rejected trial ->
                log "iter %d: bottleneck g%d par %d -> %d rejected (%s)"
                  !iterations u.id from par
                  (if not trial.Report.feasible then "exceeds budget"
                   else "no latency gain");
                false
            | Pruned ->
                log
                  "iter %d: bottleneck g%d par %d -> %d pruned by the \
                   analyzer (hardware signature unchanged, synthesis \
                   skipped)"
                  !iterations u.id from par;
                false
            | Out_of_budget reason ->
                log
                  "iter %d: budget exhausted (%s); search stopped at the \
                   incumbent"
                  !iterations reason;
                continue_ := false;
                true
            | Failed e ->
                log
                  "iter %d: candidate g%d par %d -> %d evaluation failed \
                   (%s); candidate skipped (POM304)"
                  !iterations u.id from par (Printexc.to_string e);
                false
          end
        in
        if not (List.exists try_par (steps u.par)) then begin
          log "iter %d: g%d removed from the optimization list (exit mechanism)"
            !iterations u.id;
          u.active <- false
        end
  done;
  if !continue_ && Option.is_some (critical ()) then
    log
      "iter %d: iteration cap reached; search stopped with %d units still on \
       the optimization list"
      !iterations
      (List.length (List.filter (fun u -> u.active) units));
  let prog, directives, report = s.incumbent in
  if s.pruned > 0 then
    log "analyzer: %d design points pruned before synthesis" s.pruned;
  {
    directives;
    prog;
    report;
    iterations = !iterations;
    tile_vectors = tile_vectors s;
    trace = List.rev !trace;
    evaluations = evaluations s;
    pruned = s.pruned;
    sched = { chunks = 0; steals = 0; splits = 0 };
  }
