(** Wire codecs for the virtual-synthesizer layer: devices (a compile
    request's target) and synthesis reports (a compile result's QoR). *)

val device : Device.t Pom_wire.Wire.t
val report : Report.t Pom_wire.Wire.t
