(** Structured compiler diagnostics for the static-analysis layer.

    Every verifier and linter finding is a coded, located, severity-tagged
    value rather than a bare string, so the pipeline can filter them
    ([--Werror] promotion, error-only gating), the CLI can render them
    uniformly, and tests can assert on codes instead of message text.

    Code ranges: [POM1xx] IR well-formedness (verifier), [POM2xx] HLS
    directive lint, [POM3xx] resilience (budgets, degradation — see
    {!Pom_resilience.Error}), [POM4xx] refutation counterexamples
    ([POM401] polyhedral oracle mismatch, [POM402] legality soundness,
    [POM403] accepted-schedule crash, [POM404] degradation contract,
    [POM405] precision-miss hint). *)

type severity = Error | Warning | Hint

(** Numerically ordered: [Error] is the most severe. *)
val severity_rank : severity -> int

val severity_name : severity -> string

type t = {
  code : string;  (** stable identifier, e.g. ["POM201"] *)
  severity : severity;
  loc : string list;
      (** IR location path, outermost first, e.g.
          [["gemm"; "s"; "loop k"]] *)
  message : string;
  note : string option;  (** optional fix-it suggestion *)
}

val v :
  code:string -> severity:severity -> loc:string list -> ?note:string ->
  string -> t

val error : code:string -> loc:string list -> ?note:string -> string -> t

val warning : code:string -> loc:string list -> ?note:string -> string -> t

val hint : code:string -> loc:string list -> ?note:string -> string -> t

(** Severity (most severe first), then code, then location. *)
val compare : t -> t -> int

val sort : t list -> t list

val has_errors : t list -> bool

(** [--Werror]: every warning becomes an error (hints are untouched). *)
val promote_warnings : t list -> t list

(** ["2 errors, 1 warning, 3 hints"] with zero counts elided; ["clean"]
    when the list is empty. *)
val summary : t list -> string

val pp : Format.formatter -> t -> unit

val pp_list : Format.formatter -> t list -> unit
