(** Wire codecs ({!Pom_wire.Wire}) for the polyhedral layer: the
    constraints a refutation corpus case carries, and the bytes of the
    name-free problem keys ({!Dep.key}, the legality checker's flip
    problems). *)

val linexpr : Linexpr.t Pom_wire.Wire.t

val constr : Constr.t Pom_wire.Wire.t
