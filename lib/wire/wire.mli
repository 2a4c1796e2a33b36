(** Self-describing binary codecs built from combinators.

    A ['a t] couples an encoder, a strict decoder, and a pretty-printer
    for one OCaml type, derived from a single declarative description
    (primitives composed with [list]/[option]/[record]/[union]/...).
    Every persistent artifact and every byte of client/daemon IPC in
    the pipeline goes through these codecs instead of [Marshal], so on-disk
    data survives compiler upgrades and corrupt input surfaces as a
    typed error, never a segfault or an unchecked cast.

    Encoding conventions:
    - ints are LEB128 varints, zigzag-mapped so small negative values
      stay short;
    - floats are their IEEE-754 bits, 8 bytes little-endian (exact
      round-trip, no printf detour);
    - strings, lists and arrays are length-prefixed;
    - union constructors are tagged with small ints that are part of
      the format: reorder cases and you break the format, append cases
      and old data still decodes.

    Decoding is strict: [of_string] consumes the whole buffer, bounds
    every length against the bytes actually remaining (so fuzzed
    lengths cannot allocate unbounded memory), and turns any failure —
    including [Invalid_argument] raised by smart constructors while
    rebuilding values — into [Error Corrupt_data].  Framing, magic
    numbers and versioning live one layer up in {!Frame}. *)

(** Raised (and returned, see {!of_string}) when bytes cannot be decoded
    as the described type: truncation, trailing garbage, an unknown
    union tag, or a smart constructor rejecting the rebuilt value. *)
exception Corrupt of { what : string; detail : string }

(** Raised by {!Frame} when a stream's format or schema version does not
    match what the reader expects. *)
exception
  Version_mismatch of { what : string; expected : int; got : int }

type 'a t

(** The short name the codec was declared with (used in error messages). *)
val id : 'a t -> string

(** Replace the derived printer with the domain type's own. *)
val with_pp : (Format.formatter -> 'a -> unit) -> 'a t -> 'a t

val pp : 'a t -> Format.formatter -> 'a -> unit

(** {1 Encoding / decoding} *)

val to_string : 'a t -> 'a -> string

(** Strict decode of a whole buffer.  All failures come back as
    [Error (Corrupt _)]; never raises. *)
val of_string : 'a t -> string -> ('a, exn) result

(** Like {!of_string} but raises {!Corrupt}. *)
val of_string_exn : 'a t -> string -> 'a

(** Append [v]'s encoding to [buf] (for building composite payloads). *)
val encode : 'a t -> Buffer.t -> 'a -> unit

(** {1 Primitives} *)

val unit : unit t
val bool : bool t

(** Zigzag LEB128; any native [int] round-trips. *)
val int : int t

(** IEEE-754 bits; NaNs and signed zeros round-trip exactly. *)
val float : float t

val string : string t

(** {1 Combinators} *)

val option : 'a t -> 'a option t
val list : 'a t -> 'a list t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** [conv name proj inj c] encodes ['b] through its projection to ['a].
    [inj] may validate and raise [Invalid_argument]/[Failure]; decode
    reports that as corrupt data. *)
val conv : string -> ('b -> 'a) -> ('a -> 'b) -> 'a t -> 'b t

(** {1 Records}

    [record<N> name f1 .. fN make] encodes the fields in order and
    rebuilds with [make]; the field names only feed the printer. *)

type ('r, 'a) field

val field : string -> 'a t -> ('r -> 'a) -> ('r, 'a) field

val record2 :
  string -> ('r, 'a) field -> ('r, 'b) field -> ('a -> 'b -> 'r) -> 'r t

val record3 :
  string ->
  ('r, 'a) field ->
  ('r, 'b) field ->
  ('r, 'c) field ->
  ('a -> 'b -> 'c -> 'r) ->
  'r t

val record4 :
  string ->
  ('r, 'a) field ->
  ('r, 'b) field ->
  ('r, 'c) field ->
  ('r, 'd) field ->
  ('a -> 'b -> 'c -> 'd -> 'r) ->
  'r t

val record5 :
  string ->
  ('r, 'a) field ->
  ('r, 'b) field ->
  ('r, 'c) field ->
  ('r, 'd) field ->
  ('r, 'e) field ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'r) ->
  'r t

val record6 :
  string ->
  ('r, 'a) field ->
  ('r, 'b) field ->
  ('r, 'c) field ->
  ('r, 'd) field ->
  ('r, 'e) field ->
  ('r, 'f) field ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'r) ->
  'r t

val record8 :
  string ->
  ('r, 'a) field ->
  ('r, 'b) field ->
  ('r, 'c) field ->
  ('r, 'd) field ->
  ('r, 'e) field ->
  ('r, 'f) field ->
  ('r, 'g) field ->
  ('r, 'h) field ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'g -> 'h -> 'r) ->
  'r t

val record9 :
  string ->
  ('r, 'a) field ->
  ('r, 'b) field ->
  ('r, 'c) field ->
  ('r, 'd) field ->
  ('r, 'e) field ->
  ('r, 'f) field ->
  ('r, 'g) field ->
  ('r, 'h) field ->
  ('r, 'i) field ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'g -> 'h -> 'i -> 'r) ->
  'r t

(** {1 Variants} *)

type 'a case

(** [case tag name codec inj proj]: one constructor of a union.  [tag]
    is the on-the-wire discriminant and must be unique within the
    union; [proj] returns [Some payload] when the value matches this
    case. *)
val case : int -> string -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case

(** Tagged union.  Raises [Invalid_argument] at construction on
    duplicate tags; decoding an unknown tag is corrupt data at this
    layer (forward-compatible skipping happens at the {!Frame} record
    layer, not inside a value). *)
val union : string -> 'a case list -> 'a t

(** Nullary-constructor union: tags are list positions. *)
val enum : string -> (string * 'a) list -> 'a t

(** Recursive types: [fix (fun self -> ...)]. *)
val fix : string -> ('a t -> 'a t) -> 'a t

(** {1 Low-level varints (shared with {!Frame})} *)

val write_uvarint : Buffer.t -> int -> unit

type reader

val reader : ?pos:int -> ?limit:int -> string -> reader
val read_uvarint : what:string -> reader -> int
val reader_pos : reader -> int
