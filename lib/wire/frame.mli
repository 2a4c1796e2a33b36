(** Stream framing for wire-encoded records.

    Every persistent file and daemon socket carries one framed stream:

    {v
    +------+----+-------------------+----------------+
    | POMW | fv | kind (string)     | schema version |   header
    +------+----+-------------------+----------------+
    | tag | len | payload (len bytes)       | CRC-32 |   record, repeated
    +-----+-----+---------------------------+--------+
    v}

    [fv] is the single-byte framing format version ({!format_version});
    the header's [kind] names the stream (["pom-request"],
    ["pom-cache-journal"], ...) and its schema [version] covers the record
    payload codecs.  Each record is a varint [tag], a varint byte
    [len], the payload, and a CRC-32 over the encoded tag+len+payload.

    Readers skip records with tags they do not understand (forward
    compatibility: newer writers may add record types) and detect
    truncation and bit flips via the CRC — a torn tail reads as a clean
    end with {!input_record} raising {!Wire.Corrupt}, which journal
    loaders turn into truncate-and-resume, never a crash. *)

val magic : string

val format_version : int

type header = { kind : string; version : int }

(** {1 Channel IO} *)

val output_header : out_channel -> header -> unit

(** Raises {!Wire.Corrupt} on bad magic or a torn header,
    {!Wire.Version_mismatch} when the framing format byte differs. The
    caller checks [kind]/[version] against its expectations. *)
val input_header : what:string -> in_channel -> header

val output_record : out_channel -> tag:int -> string -> unit

(** [None] at a clean end of stream (EOF at a record boundary); raises
    {!Wire.Corrupt} on a torn record or CRC mismatch.  [max_payload]
    (default {!max_payload}) tightens the length sanity cap — servers
    reading requests from untrusted peers pass a small bound so a
    hostile length field is rejected before any allocation. *)
val input_record :
  ?max_payload:int -> what:string -> in_channel -> (int * string) option

(** The default record payload cap (256 MiB). *)
val max_payload : int

(** {1 Buffer IO (for fixtures and fuzzing)} *)

val add_record : Buffer.t -> tag:int -> string -> unit
val header_to_string : header -> string
