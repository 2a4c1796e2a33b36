(** Wire codecs ({!Pom_wire.Wire}) for the polyhedral layer: the
    constraints a refutation corpus case carries. *)

val constr : Constr.t Pom_wire.Wire.t
