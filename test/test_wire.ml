(* The wire layer: codec round-trips (property-based and on real compiler
   types), golden-file format stability, frame CRC/truncation behaviour,
   and journal version bumps. *)

module W = Pom_wire.Wire
module Frame = Pom_wire.Frame
module Ckpt = Pom.Resilience.Checkpoint
module Sched = Pom.Dsl.Schedule
module Polybench = Pom.Workloads.Polybench

let roundtrip codec v = W.of_string_exn codec (W.to_string codec v)

(* -------- primitive round-trips -------- *)

let test_int_edges () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "int %d" n)
        n (roundtrip W.int n))
    [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int; min_int + 1; 0x3fffffff ]

let test_float_edges () =
  List.iter
    (fun f ->
      let f' = roundtrip W.float f in
      Alcotest.(check bool)
        (Printf.sprintf "float %h bits preserved" f)
        true
        (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')))
    [ 0.0; -0.0; 1.5; -3.25e300; infinity; neg_infinity; nan; epsilon_float ]

let prop_int =
  QCheck.Test.make ~name:"any int round-trips" ~count:500 QCheck.int (fun n ->
      roundtrip W.int n = n)

let prop_string =
  QCheck.Test.make ~name:"any string round-trips" ~count:200
    QCheck.(string_gen QCheck.Gen.char)
    (fun s -> roundtrip W.string s = s)

let prop_composite =
  let codec = W.list (W.pair W.string (W.option (W.list W.int))) in
  QCheck.Test.make ~name:"composite round-trips" ~count:200
    QCheck.(small_list (pair small_string (option (small_list int))))
    (fun v -> roundtrip codec v = v)

(* decoding arbitrary bytes must never raise out of [of_string], and on
   success must consume the whole buffer (strictness) *)
let prop_never_raises =
  let codec = W.list (W.pair W.string (W.list W.int)) in
  QCheck.Test.make ~name:"of_string never raises on garbage" ~count:500
    QCheck.(string_gen QCheck.Gen.char)
    (fun s ->
      match W.of_string codec s with
      | Ok v -> W.to_string codec v = s
      | Error (W.Corrupt _) -> true
      | Error _ -> false)

(* -------- real compiler types -------- *)

let sample_directives =
  [
    Sched.interchange "s" "i" "j";
    Sched.split "s" "k" 8 "ko" "ki";
    Sched.pipeline "s" "ki" 1;
    Sched.unroll "s" "j" 4;
    Sched.reverse "s" "k" "kr";
    Sched.partition "A" [ 4; 4 ] Sched.Cyclic;
    Sched.partition "B" [ 2 ] Sched.Block;
    Sched.partition "C" [ 1 ] Sched.Complete;
  ]

let pp_dirs = List.map (Format.asprintf "%a" Sched.pp)

let test_directives_roundtrip () =
  let codec = W.list Pom_dsl.Wirec.schedule in
  Alcotest.(check (list string))
    "directive list survives the wire"
    (pp_dirs sample_directives)
    (pp_dirs (roundtrip codec sample_directives))

let test_report_roundtrip () =
  let func = Polybench.gemm 32 in
  let prog = Pom.Polyir.Prog.of_func func in
  let report =
    Pom.Hls.Report.synthesize ~device:Pom.Hls.Device.xc7z020 prog
  in
  Alcotest.(check bool)
    "synthesis report survives the wire" true
    (roundtrip Pom_hls.Wirec.report report = report)

(* -------- golden files: the format itself is the contract -------- *)

(* Each fixture is the committed encoding of a fixed value.  If a codec
   change breaks one of these, that is a wire-format break: bump the
   relevant stream's schema version and re-bless with POM_WIRE_BLESS=<dir>
   pointing at the source test/golden directory. *)

let golden_ints = List.init 20 (fun i -> (i * 37) - 300) @ [ max_int; min_int ]
let golden_ints_codec = W.list W.int
let golden_dirs_codec = W.list Pom_dsl.Wirec.schedule

let golden_header =
  Frame.header_to_string { Frame.kind = "pom-golden"; version = 7 }

let goldens () =
  [
    ("ints.wire", W.to_string golden_ints_codec golden_ints);
    ("directives.wire", W.to_string golden_dirs_codec sample_directives);
    ("header.wire", golden_header);
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden () =
  match Sys.getenv_opt "POM_WIRE_BLESS" with
  | Some dir when dir <> "" ->
      List.iter
        (fun (name, bytes) ->
          let oc = open_out_bin (Filename.concat dir name) in
          output_string oc bytes;
          close_out oc;
          Printf.printf "blessed %s (%d bytes)\n" name (String.length bytes))
        (goldens ())
  | _ ->
      List.iter
        (fun (name, bytes) ->
          Alcotest.(check string)
            (name ^ " matches the committed fixture")
            (read_file (Filename.concat "golden" name))
            bytes)
        (goldens ())

(* -------- frame-level corruption -------- *)

let with_temp_bytes bytes f =
  let path = Filename.temp_file "pom_wire" ".bin" in
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_frame_crc_detects_flip () =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Frame.header_to_string { Frame.kind = "t"; version = 1 });
  let header_len = Buffer.length buf in
  Frame.add_record buf ~tag:1 "payload-bytes";
  let bytes = Bytes.of_string (Buffer.contents buf) in
  (* flip one payload byte, leaving the CRC as written *)
  let i = header_len + 3 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
  with_temp_bytes (Bytes.to_string bytes) (fun path ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let _ = Frame.input_header ~what:"t" ic in
          match Frame.input_record ~what:"t" ic with
          | exception W.Corrupt _ -> ()
          | Some _ -> Alcotest.fail "bit flip not caught by CRC"
          | None -> Alcotest.fail "flipped record read as clean EOF"))

(* A journal record as {!Ckpt.append} writes it: the key, and the value
   encoded with the journal's codec (here plain strings). *)
let journal_record k v =
  W.to_string (W.pair W.string W.string) (k, W.to_string W.string v)

(* a valid journal to corrupt: header + 3 records *)
let journal_bytes () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Frame.header_to_string { Frame.kind = Ckpt.kind; version = Ckpt.version });
  List.iter
    (fun (k, v) -> Frame.add_record buf ~tag:1 (journal_record k v))
    [ ("k1", "d1"); ("k2", "d2"); ("k3", "d3") ];
  Buffer.contents buf

let load_records bytes =
  with_temp_bytes bytes (fun path ->
      let j, records, notes = Ckpt.load W.string path in
      Option.iter Ckpt.close j;
      (records, notes))

let all_records = [ ("k1", "d1"); ("k2", "d2"); ("k3", "d3") ]

let is_prefix records =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | r :: rs, a :: alls -> r = a && go (rs, alls)
  in
  go (records, all_records)

let test_journal_truncation_fuzz () =
  let bytes = journal_bytes () in
  for len = 0 to String.length bytes do
    let records, _ = load_records (String.sub bytes 0 len) in
    if not (is_prefix records) then
      Alcotest.fail
        (Printf.sprintf "prefix of %d bytes replayed non-prefix records" len)
  done

let test_journal_bitflip_fuzz () =
  let bytes = journal_bytes () in
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
    let records, _ = load_records (Bytes.to_string b) in
    (* a flip anywhere may cost records (even all of them, when it hits
       the header) but never invents or reorders them *)
    if not (is_prefix records) then
      Alcotest.fail
        (Printf.sprintf "flip at byte %d replayed non-prefix records" i)
  done

(* A journal of any other schema restarts empty: a newer writer's, a
   version-2 one, whose records also carried each design point's program,
   and a version-3 one, keyed by the point's full fingerprint instead of
   its digest. *)
let test_journal_version_bump () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun version ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf
        (Frame.header_to_string { Frame.kind = Ckpt.kind; version });
      Frame.add_record buf ~tag:1 (journal_record "k" "d");
      let records, notes = load_records (Buffer.contents buf) in
      let where = Printf.sprintf "schema %d" version in
      Alcotest.(check int) (where ^ ": journal restarts empty") 0
        (List.length records);
      Alcotest.(check bool) (where ^ ": restart carries a POM309 note") true
        (List.exists (fun n -> contains n "POM309") notes))
    [ Ckpt.version + 1; 2; 3 ]

let test_journal_unknown_tag_skipped () =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Frame.header_to_string { Frame.kind = Ckpt.kind; version = Ckpt.version });
  Frame.add_record buf ~tag:1 (journal_record "k1" "d1");
  Frame.add_record buf ~tag:99 "from-a-newer-writer";
  Frame.add_record buf ~tag:1 (journal_record "k2" "d2");
  with_temp_bytes (Buffer.contents buf) (fun path ->
      let size0 = (Unix.stat path).Unix.st_size in
      let j, records, notes = Ckpt.load W.string path in
      Option.iter Ckpt.close j;
      Alcotest.(check (list (pair string string)))
        "known records replay around the unknown tag"
        [ ("k1", "d1"); ("k2", "d2") ]
        records;
      Alcotest.(check (list string)) "skipping is not a degradation" [] notes;
      Alcotest.(check int)
        "the unknown record is preserved, not truncated" size0
        (Unix.stat path).Unix.st_size)

let () =
  Alcotest.run "wire"
    [
      ( "primitives",
        [
          Alcotest.test_case "int edge cases" `Quick test_int_edges;
          Alcotest.test_case "float edge cases" `Quick test_float_edges;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_int; prop_string; prop_composite; prop_never_raises ] );
      ( "compiler types",
        [
          Alcotest.test_case "directives" `Quick test_directives_roundtrip;
          Alcotest.test_case "report" `Quick test_report_roundtrip;
        ] );
      ("golden", [ Alcotest.test_case "fixtures" `Quick test_golden ]);
      ( "corruption",
        [
          Alcotest.test_case "CRC catches bit flips" `Quick
            test_frame_crc_detects_flip;
          Alcotest.test_case "truncation fuzz" `Quick
            test_journal_truncation_fuzz;
          Alcotest.test_case "bit-flip fuzz" `Quick test_journal_bitflip_fuzz;
          Alcotest.test_case "version bump rejected" `Quick
            test_journal_version_bump;
          Alcotest.test_case "unknown tags skipped" `Quick
            test_journal_unknown_tag_skipped;
        ] );
    ]
