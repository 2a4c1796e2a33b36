(** A crash-safe append-only journal of keyed records.

    The DSE searches journal every design point they price ([key] = a
    digest of the design point's identity, [data] = the wire-encoded
    synthesis report); a process killed mid-search loses at most the
    record being written.  On reopen,
    the journal replays every intact record and truncates a torn tail (the
    partial record a crash can leave), so resuming appends from a
    consistent prefix.

    The file is a {!Pom_wire.Frame} stream: magic + framing version, a
    [kind]/[schema version] header, then CRC-checked tag/length records.
    A file with the wrong magic or kind, or a different schema version, is
    restarted empty rather than trusted (surfaced as a POM309-worded
    note); a record with a CRC mismatch ends the intact prefix exactly
    like a torn tail (POM306/POM308 territory).  Records with unknown
    tags are skipped but preserved — a newer writer's extra record types
    do not invalidate the journal.  The journal is a cache of
    recomputable work, so every degradation path drops data and
    recomputes, never crashes and never yields a wrong result. *)

type t

(** The default stream kind written in the header (the DSE journal);
    other keyed journals (the compile server's response-cache journal,
    kind ["pom-cache-journal"]) pass their own [kind] to {!load} and
    inherit the identical truncation/restart contract. *)
val kind : string

(** The schema version of the record payload codecs.  Bump when the
    journal payload encoding changes incompatibly.  Version 4 keys a
    record by a 16-byte digest; version 3 keyed it by the full function
    fingerprint and directive list, and version 2 records also carried the
    design point's program. *)
val version : int

(** [load path] opens (creating if needed) the journal and returns it
    with the intact records, oldest first, plus human-readable notes
    describing any degradation applied (torn tail truncated, version
    mismatch restart, corrupt record cut).  An empty note list means the
    file was pristine.

    Durability contract: every {!append} flushes to the OS, so a
    *process* crash loses at most the record being written; {!close}
    additionally fsyncs, so a cleanly closed journal survives a
    *machine* crash too.  With [fsync_each] (default false) every
    append fsyncs before returning — full machine-crash durability per
    acknowledged record, at a heavy per-append cost.

    [kind]/[version] override the stream identity (default: the DSE
    journal's); a file carrying any other kind or version is restarted
    empty, so two journal flavours can never be confused for each
    other. *)
val load :
  ?fsync_each:bool ->
  ?kind:string ->
  ?version:int ->
  string ->
  t * (string * string) list * string list

(** Append one record and flush it to the OS (and fsync it, when the
    journal was loaded with [fsync_each]).  Thread-safe. *)
val append : t -> key:string -> data:string -> unit

val path : t -> string

val close : t -> unit
