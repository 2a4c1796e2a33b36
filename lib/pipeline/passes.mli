(** The passes shared by every compile flow.  Each is a {!Pass.t} over
    {!State.t}; flows (POM auto, the baselines, manual schedules) prepend
    their own transform passes and share this tail.  A pass whose output
    the compile exists to deliver is created [required]: schedule
    application, synthesis, lowering, simplification and emission.  The
    analyses (legality, lint, verify-ir) and directive accumulation are
    not. *)

(** Record a degraded pass failure on the state: a warning diagnostic with
    the typed error's code/pass/context, plus a trace line. *)
val record_failure : State.t -> Pom_resilience.Error.t -> State.t

(** [guard p] is {!Pass.guarded} with {!record_failure} as the diagnostic
    hook — the standard wrapping for every pass over {!State.t}. *)
val guard : State.t Pass.t -> State.t Pass.t

(** Append the specification's structural fusion directives. *)
val structural : unit -> State.t Pass.t

(** Append every directive recorded on the function itself (the manual
    schedule; [auto_DSE] markers are inert under application). *)
val user_schedule : unit -> State.t Pass.t

(** Apply the accumulated directives, producing the polyhedral program. *)
val schedule_apply : unit -> State.t Pass.t

(** Check the current program against the structural reference with the
    polyhedral dependence checker; the verdict is appended to the trace and
    the violation count stored in [legality_violations]. *)
val legality_check : unit -> State.t Pass.t

(** The trace line {!legality_check} appends when, under the [degrade]
    policy, the proof ran out of budget: the schedule is then
    conservatively rejected, with [legality_violations = 1] as a sentinel
    rather than a count of reversed dependences. *)
val legality_timeout_trace : string

(** Run {!Pom_analysis.Lint} on the scheduled program: recurrence-II vs
    requested [pipeline_ii], serializing unrolls, bank conflicts, dead and
    malformed directives.  Diagnostics accumulate in [diags]. *)
val lint_pragmas : unit -> State.t Pass.t

(** Run {!Pom_analysis.Verify_ir} on the affine IR (and the polyhedral
    out-of-bounds analysis on the program).  Diagnostics accumulate in
    [diags]. *)
val verify_ir : unit -> State.t Pass.t

(** Synthesize the virtual HLS report for the current design point, unless
    an earlier pass already set the state's report: a DSE search sets it
    to the design it settled on, priced as it searched. *)
val synthesize : unit -> State.t Pass.t

(** Lower the polyhedral program to the annotated affine dialect. *)
val affine_lower : unit -> State.t Pass.t

(** Guard merging / hoisting / tautology elision on the affine level. *)
val affine_simplify : unit -> State.t Pass.t

(** Emit HLS C from the simplified affine program. *)
val emit_hls_c : unit -> State.t Pass.t

(** The shared tail: synthesize, lower, simplify, verify-ir, emit. *)
val tail : unit -> State.t Pass.t list
