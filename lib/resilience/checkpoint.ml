module Wire = Pom_wire.Wire
module Frame = Pom_wire.Frame

type 'a t = {
  codec : 'a Wire.t;
  oc : out_channel;
  lock : Mutex.t;
  fsync_each : bool;
}

(* Push the channel's buffered bytes through the OS down to the device.
   [flush] alone only reaches the kernel's page cache: a machine crash (as
   opposed to a process crash) can still lose acknowledged records.  A
   failed fsync is ignored — some filesystems (pipes, certain tmpfs
   setups) reject it, and the journal's contract degrades to flush-level
   durability there rather than failing the append. *)
let fsync_channel oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error _ | Sys_error _ -> ()

let record_tag = 1
let record_codec = Wire.pair Wire.string Wire.string

(* Read every intact record; returns them with the byte offset one past
   the last intact record (so a torn or corrupt tail can be truncated
   away) and notes describing anything dropped on the way. *)
let read_records ic =
  let records = ref [] in
  let notes = ref [] in
  let good = ref (pos_in ic) in
  let rec go () =
    match Frame.input_record ~what:"checkpoint" ic with
    | None -> ()
    | Some (tag, payload) when tag = record_tag -> (
        match Wire.of_string record_codec payload with
        | Ok kv ->
            records := kv :: !records;
            good := pos_in ic;
            go ()
        | Error _ ->
            (* CRC-intact but undecodable: written by a buggy or newer
               same-version writer.  Cut here like a torn tail. *)
            notes :=
              "checkpoint: undecodable record ends the intact prefix \
               (POM308)" :: !notes)
    | Some _ ->
        (* unknown record tag from a newer writer: skip, keep *)
        good := pos_in ic;
        go ()
  in
  (try go () with Wire.Corrupt _ -> ());
  (List.rev !records, !good, List.rev !notes)

type verdict =
  | Intact of (string * string) list * int * string list
  | Restart of string option  (* note, when an old file is discarded *)

let examine ~kind ~version path =
  if not (Sys.file_exists path) then Restart None
  else begin
    let ic = open_in_bin path in
    let verdict =
      match Frame.input_header ~what:"checkpoint" ic with
      | exception Wire.Corrupt _ ->
          Restart (Some "checkpoint: unrecognized journal header; restarting empty (POM306)")
      | exception Wire.Version_mismatch { expected; got; _ } ->
          Restart
            (Some
               (Printf.sprintf
                  "checkpoint: journal framing version %d (expected %d); restarting empty (POM309)"
                  got expected))
      | h when h.Frame.kind <> kind ->
          Restart
            (Some
               (Printf.sprintf
                  "checkpoint: stream kind %S is not %S; restarting empty (POM306)"
                  h.Frame.kind kind))
      | h when h.Frame.version <> version ->
          Restart
            (Some
               (Printf.sprintf
                  "checkpoint: journal schema version %d (expected %d); restarting empty (POM309)"
                  h.Frame.version version))
      | _ ->
          let records, good, notes = read_records ic in
          Intact (records, good, notes)
    in
    close_in ic;
    verdict
  end

(* Open (creating if needed) the file, cutting a torn tail or restarting
   a foreign one; the intact records come back still encoded. *)
let open_file ~kind ~version path =
  let records, notes =
    match examine ~kind ~version path with
    | Intact (records, good, notes) ->
        let size = (Unix.stat path).Unix.st_size in
        let notes =
          if good < size then begin
            (* torn tail from a crash mid-append: cut back to the intact
               prefix *)
            Unix.truncate path good;
            notes
            @ [
                Printf.sprintf
                  "checkpoint: truncated %d-byte torn tail (POM306)"
                  (size - good);
              ]
          end
          else notes
        in
        (records, notes)
    | Restart note ->
        let oc = open_out_bin path in
        Frame.output_header oc { Frame.kind; version };
        close_out oc;
        ([], Option.to_list note)
  in
  (open_out_gen [ Open_append; Open_binary ] 0o644 path, records, notes)

(* A path that cannot be opened costs the journal, never the compile. *)
let unreadable path reason =
  ( None,
    [],
    [
      Printf.sprintf
        "checkpoint: %s unreadable (%s); continuing without a journal (POM306)"
        path reason;
    ] )

let load ?(fsync_each = false) ~kind ~version codec path =
  match open_file ~kind ~version path with
  | exception Sys_error reason -> unreadable path reason
  | exception Unix.Unix_error (e, _, _) ->
      unreadable path (path ^ ": " ^ Unix.error_message e)
  | oc, records, notes ->
      let decoded =
        List.filter_map
          (fun (key, data) ->
            match Wire.of_string codec data with
            | Ok v -> Some (key, v)
            | Error _ -> None)
          records
      in
      let dropped = List.length records - List.length decoded in
      let notes =
        if dropped = 0 then notes
        else
          notes
          @ [
              Printf.sprintf
                "checkpoint: dropped %d undecodable record(s) (POM308)" dropped;
            ]
      in
      (Some { codec; oc; lock = Mutex.create (); fsync_each }, decoded, notes)

let append t ~key v =
  Mutex.lock t.lock;
  Frame.output_record t.oc ~tag:record_tag
    (Wire.to_string record_codec (key, Wire.to_string t.codec v));
  flush t.oc;
  if t.fsync_each then fsync_channel t.oc;
  Mutex.unlock t.lock

let close t =
  Mutex.lock t.lock;
  (* fsync before close: acknowledged records survive a machine crash
     from here on (per-append durability is opt-in via [fsync_each]) *)
  (try fsync_channel t.oc with Sys_error _ -> ());
  (try close_out t.oc with Sys_error _ -> ());
  Mutex.unlock t.lock
