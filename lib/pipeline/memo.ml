open Pom_dsl
open Pom_hls

type counters = {
  schedule_hits : int;
  schedule_misses : int;
  report_hits : int;
  report_misses : int;
  plan_hits : int;
  plan_misses : int;
}

type t = unit

let global = ()

let snapshot () =
  {
    schedule_hits = 0;
    schedule_misses = 0;
    report_hits = 0;
    report_misses = 0;
    plan_hits = 0;
    plan_misses = 0;
  }

(* The function fingerprint covers everything directive application and
   synthesis can observe: iterator extents, array shapes and types, and the
   statement bodies (two same-named workloads at different problem sizes or
   data types must not collide). *)
let func_key func =
  let b = Buffer.create 256 in
  Buffer.add_string b (Func.name func);
  List.iter
    (fun (c : Compute.t) ->
      Buffer.add_char b '|';
      Buffer.add_string b (Format.asprintf "%a" Compute.pp c);
      List.iter
        (fun (v : Var.t) ->
          Buffer.add_string b
            (Printf.sprintf ";%s:%d:%d" v.Var.name v.Var.lb v.Var.ub))
        c.Compute.iters)
    (Func.computes func);
  List.iter
    (fun (p : Placeholder.t) ->
      Buffer.add_string b
        (Printf.sprintf "|%s[%s]%s" p.Placeholder.name
           (String.concat "," (List.map string_of_int p.Placeholder.shape))
           (Dtype.c_name p.Placeholder.dtype)))
    (Func.placeholders func);
  Buffer.contents b

let directives_key directives =
  String.concat ";" (List.map Schedule.to_string directives)

let device_key (d : Device.t) =
  Printf.sprintf "%s:%d:%d:%d:%d:%g" d.Device.name d.Device.dsp d.Device.lut
    d.Device.ff d.Device.bram_bits d.Device.clock_mhz
