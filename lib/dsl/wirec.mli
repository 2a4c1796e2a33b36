(** Wire codecs for the DSL layer: schedule directives and whole
    functions (a compile request's payload, a refutation case's input).

    The [func] codec rebuilds through the public builder API
    ({!Func.create}/{!Func.add_compute}/{!Func.schedule}), so a decoded
    function re-runs the same registration checks as one written by
    hand — corrupt input that violates them surfaces as a typed
    {!Pom_wire.Wire.Corrupt}, not as a malformed value. *)

val schedule : Schedule.t Pom_wire.Wire.t
val func : Func.t Pom_wire.Wire.t
