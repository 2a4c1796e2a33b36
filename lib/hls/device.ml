type t = {
  name : string;
  dsp : int;
  lut : int;
  ff : int;
  bram_bits : int;
  clock_mhz : float;
}

let xc7z020 =
  {
    name = "xc7z020";
    dsp = 220;
    lut = 53_200;
    ff = 106_400;
    bram_bits = 4_900_000;
    clock_mhz = 100.0;
  }

let xczu9eg =
  {
    name = "xczu9eg";
    dsp = 2520;
    lut = 274_080;
    ff = 548_160;
    bram_bits = 32_100_000;
    clock_mhz = 100.0;
  }

let scale frac d =
  if frac <= 0.0 || frac > 1.0 then invalid_arg "Device.scale: bad fraction";
  let s x = int_of_float (frac *. float_of_int x) in
  {
    d with
    dsp = s d.dsp;
    lut = s d.lut;
    ff = s d.ff;
    bram_bits = s d.bram_bits;
  }
