(** FPGA device descriptions.  The evaluation targets the Xilinx XC7Z020
    (Zynq-7020) at a 100 MHz target clock, with the resource counts quoted
    in Section VII-A. *)

type t = {
  name : string;
  dsp : int;
  lut : int;
  ff : int;
  bram_bits : int;
  clock_mhz : float;
}

val xc7z020 : t

(** A mid-range UltraScale+ part (ZCU102's XCZU9EG), for device-scaling
    studies beyond the paper's single board. *)
val xczu9eg : t

(** [scale frac d] shrinks every resource budget to [frac] of [d] (used by
    the Fig. 11 resource-constraint sweep). *)
val scale : float -> t -> t
