(** The hand-optimized BICG design of Table IV: an expert's restructuring
    (distribute, interchange the conflicted statement, pipeline and unroll
    each loop separately with matching partitions) — good, but it neither
    re-fuses the two loops nor balances the bank budget, so it lands behind
    the DSE design while spending more operators. *)

open Pom_dsl

type result = {
  directives : Schedule.t list;
  prog : Pom_polyir.Prog.t;
  report : Pom_hls.Report.t;
}

(** [bicg n] builds the kernel and applies the manual schedule. *)
val bicg : ?device:Pom_hls.Device.t -> int -> result
