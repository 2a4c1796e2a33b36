(** A crash-safe append-only journal of keyed records.

    The compile daemon's durable response cache journals every cache
    insert ([key] = the request's cache key, value = the compile
    result); a process killed mid-append loses at most the record being
    written.  On reopen, the journal replays every intact record and
    truncates a torn tail (the partial record a crash can leave), so
    resuming appends from a consistent prefix.

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

(** An open journal whose record values are ['a]s. *)
type 'a t

(** [load ~kind ~version codec path] opens (creating if needed) the
    journal and returns it with the intact records, oldest first, their
    values decoded with [codec], plus human-readable notes describing any
    degradation applied (torn tail truncated, version mismatch restart,
    corrupt record cut).  An empty note list means the file was
    pristine.

    The journal is a cache of recomputable work, so no load failure is
    fatal: a CRC-intact value [codec] cannot decode is dropped (one
    POM308 note counts them), and a [path] that cannot be opened or
    created yields no journal ([None]) and a POM306 note.

    Durability contract: every {!append} flushes to the OS, so a
    *process* crash loses at most the record being written; {!close}
    additionally fsyncs, so a cleanly closed journal survives a
    *machine* crash too.  With [fsync_each] (default false) every
    append fsyncs before returning — full machine-crash durability per
    acknowledged record, at a heavy per-append cost.

    [kind] and [version] are the stream identity written in the header:
    the caller's name for the journal and the schema version of its
    values (bump it when their encoding changes incompatibly).  A file
    carrying any other kind or version is restarted empty, so two journal
    flavours can never be confused for each other. *)
val load :
  ?fsync_each:bool ->
  kind:string ->
  version:int ->
  'a Pom_wire.Wire.t ->
  string ->
  'a t option * (string * 'a) list * string list

(** Append one record, its value encoded with the journal's codec, and
    flush it to the OS (and fsync it, when the journal was loaded with
    [fsync_each]).  Thread-safe. *)
val append : 'a t -> key:string -> 'a -> unit

val close : 'a t -> unit
