(** Typed compile failures: the structured replacement for bare [failwith]
    on the core compile paths.

    Every resilience-layer abort carries a stable POM3xx code, the pass
    that was running (when known), a context trace (innermost first), and
    a message — so the driver can print one uniform diagnostic and honor
    the exit-code contract, and tests can assert on codes instead of
    message text.

    Code range [POM3xx] (resilience):
    - [POM300] pass failed (unexpected exception)
    - [POM301] budget exceeded (deadline or work cap)
    - [POM302], [POM303] retired (were: legality proof and dependence
      proof timed out); a timeout is [POM301] wherever it strikes
    - [POM304] DSE candidate evaluation failed — candidate skipped
    - [POM305] injected kill — the [pom_compile] driver's report of a
      [kill] fault (simulated process death)
    - [POM306] journal unreadable, foreign or torn — skipped, restarted
      empty or truncated; what it held is recomputed
    - [POM307] front-end parse error
    - [POM308] corrupt wire data — artifact dropped (cache miss), never trusted
    - [POM309] wire format version mismatch — artifact from another
      format generation, discarded cleanly
    - [POM310] compile server overloaded — request rejected at admission
      (bounded queue full), never silently dropped *)

type t = {
  code : string;  (** stable identifier, e.g. ["POM301"] *)
  pass : string option;  (** the pass running when the failure surfaced *)
  context : string list;  (** innermost first *)
  message : string;
}

exception Error of t

val make : code:string -> ?pass:string -> ?context:string list -> string -> t

(** Build a typed error from an arbitrary exception.  A {!Budget.Budget_exceeded}
    maps to [POM301], a {!Pom_wire.Wire.Corrupt} to [POM308], a
    {!Pom_wire.Wire.Version_mismatch} to [POM309] (each keeping its site
    in the context); anything else keeps the given [code]. *)
val of_exn : code:string -> ?pass:string -> exn -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
