(* The golden design gate.  Every compile the benchmark makes is reduced to
   one line — speedup, achieved IIs, tile vectors, parallelism, DSP, LUT,
   reversed dependences and a digest of the generated HLS C — and checked
   against golden/designs.txt.  A row is keyed by (input, flow, jobs), so
   the jobs=2 rows pin the same designs as the jobs=1 rows, and a compile
   served by the daemon is checked against the row of the same design
   compiled locally.  POM_BENCH_BLESS=1 rewrites the rows a run
   produced. *)

let path = Filename.concat "perfbench" (Filename.concat "golden" "designs.txt")

let key ~input ~framework ~jobs = Printf.sprintf "%s %s j%d" input framework jobs

let payload ~speedup ~(report : Pom.Hls.Report.t) ~tiles ~violations ~hls_c =
  let ints xs = String.concat "," (List.map string_of_int xs) in
  let list = function [] -> "-" | xs -> String.concat ";" xs in
  Printf.sprintf "speedup=%.4f ii=%s tiles=%s par=%.2f dsp=%d lut=%d viol=%d c=%s"
    speedup
    (list (List.map (fun (_, ii) -> string_of_int ii) report.Pom.Hls.Report.iis))
    (list (List.map (fun (s, v) -> s ^ ":" ^ ints v) tiles))
    report.Pom.Hls.Report.parallelism report.Pom.Hls.Report.usage.Pom.Hls.Resource.dsp
    report.Pom.Hls.Report.usage.Pom.Hls.Resource.lut violations
    (Digest.to_hex (Digest.string hls_c))

let of_compiled (c : Pom.compiled) =
  payload ~speedup:(Pom.speedup c) ~report:c.Pom.report ~tiles:c.Pom.tile_vectors
    ~violations:c.Pom.legality_violations ~hls_c:c.Pom.hls_c

let of_result (r : Pom_server.Protocol.result) =
  let module P = Pom_server.Protocol in
  payload ~speedup:r.P.speedup ~report:r.P.report ~tiles:r.P.tile_vectors
    ~violations:r.P.legality_violations ~hls_c:r.P.hls_c

let blessing () = Sys.getenv_opt "POM_BENCH_BLESS" = Some "1"

let sep = " | "

let split_row line =
  let n = String.length sep in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = sep then
      Some (String.sub line 0 i, String.sub line (i + n) (String.length line - i - n))
    else find (i + 1)
  in
  find 0

let load () =
  let rows = Hashtbl.create 128 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         if line <> "" && line.[0] <> '#' then
           match split_row line with
           | Some (k, v) -> Hashtbl.replace rows k v
           | None -> failwith (Printf.sprintf "%s: malformed row %S" path line)
       done
     with End_of_file -> ());
    close_in ic
  end;
  rows

(* Mismatches are collected, not raised, so one run reports every design
   that drifted.  The serve workload checks from two client threads. *)
type t = {
  rows : (string, string) Hashtbl.t;
  seen : (string, string) Hashtbl.t;
  lock : Mutex.t;
  mutable mismatches : (string * string) list;
  mutable expected : string list;
}

let create () =
  {
    rows = load ();
    seen = Hashtbl.create 64;
    lock = Mutex.create ();
    mismatches = [];
    expected = [];
  }

(* Rows the run must check: a design that failed to compile, or an input
   the workload never reached, is a mismatch too. *)
let expect g keys = g.expected <- g.expected @ keys

let fail g key msg =
  if not (List.mem_assoc key g.mismatches) then
    g.mismatches <- (key, msg) :: g.mismatches

let check g ~key p =
  Mutex.protect g.lock @@ fun () ->
  (match Hashtbl.find_opt g.seen key with
  | Some first when first <> p ->
      fail g key
        (Printf.sprintf "%s: two compiles in one run disagree\n  first: %s\n  later: %s"
           key first p)
  | Some _ -> ()
  | None -> Hashtbl.replace g.seen key p);
  if not (blessing ()) then
    match Hashtbl.find_opt g.rows key with
    | None -> fail g key (key ^ ": no golden row (bless with POM_BENCH_BLESS=1)")
    | Some want when want <> p ->
        fail g key
          (Printf.sprintf "%s: design differs from golden\n  golden: %s\n  got:    %s"
             key want p)
    | Some _ -> ()

(* Record a failed check that is not a design row (e.g. a cache hit that
   differs from the compile it replays). *)
let mismatch g ~key msg = Mutex.protect g.lock (fun () -> fail g key msg)

let mismatches g =
  List.rev_map snd g.mismatches
  @ List.filter_map
      (fun k -> if Hashtbl.mem g.seen k then None else Some (k ^ ": never checked in this run"))
      g.expected

(* Merge this run's rows over the file's. *)
let save g =
  Hashtbl.iter (fun k v -> Hashtbl.replace g.rows k v) g.seen;
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) g.rows []) in
  let oc = open_out path in
  output_string oc
    "# Golden designs: <input> <flow> j<jobs> | design.  Rewritten by a run\n\
     # with POM_BENCH_BLESS=1; check every changed row by hand.\n";
  List.iter (fun (k, v) -> Printf.fprintf oc "%s%s%s\n" k sep v) rows;
  close_out oc
