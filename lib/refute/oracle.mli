(** Differential oracles: decide whether a generated case refutes one of
    the compiler's trust anchors.

    Each family cross-checks an optimized implementation against an
    independent ground truth:
    - {b poly}: {!Pom_poly.Basic_set} projection and {!Pom_poly.Feasible}
      emptiness/enumeration/sampling against brute-force enumeration of
      the case's bounding box;
    - {b semantic}: the {!Pom_polyir.Legality} verdict against observed
      execution ({!Pom_sim.Interp.divergence}) — an accepted schedule that
      diverges is a soundness counterexample, a rejected schedule that
      does not diverge is only a precision miss;
    - {b degrade}: the POM30x degradation contract — faults injected at
      analysis-only sites (each kind at its first, second and third
      visit) must never change the produced design, only the
      diagnostics;
    - {b qor}: the QoR model's group latencies against
      {!Pom_sim.Cycles} operational lower bounds (distinct serial steps,
      bank port pressure) — a model latency below a bound no schedule can
      beat is optimistic fiction, and synthesis must be deterministic. *)

type verdict =
  | Pass
  | Skip of string
      (** case not applicable (schedule rejected by the transform engine,
          budget expired mid-check, ...) — neither evidence nor failure *)
  | Precision of string
      (** legality said no but execution agrees: imprecision statistic,
          not a soundness bug *)
  | Fail of Pom_analysis.Diagnostic.t
      (** a genuine counterexample, carrying the POM4xx diagnostic *)

val is_fail : verdict -> bool

(** Diagnostic codes emitted on failure: [POM401] polyhedral oracle
    mismatch, [POM402] legality soundness counterexample, [POM403]
    accepted schedule crashed the simulator, [POM404] degradation contract
    violated, [POM406] QoR model below an operational lower bound (or
    nondeterministic). [POM405] is the hint code used by reports for
    precision misses. *)

val check_poly : Case.poly -> verdict

val check_semantic : Pom_dsl.Func.t -> verdict

val check_degrade : Pom_dsl.Func.t -> verdict

val check_qor : Pom_dsl.Func.t -> verdict

(** Dispatch on the case family. *)
val check : Case.t -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
