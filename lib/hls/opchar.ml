open Pom_dsl

type cost = { latency : int; dsp : int; lut : int; ff : int }

let fadd = { latency = 4; dsp = 2; lut = 195; ff = 205 }

let fmul = { latency = 3; dsp = 3; lut = 130; ff = 143 }

let fdiv = { latency = 14; dsp = 0; lut = 800; ff = 950 }

let fminmax = { latency = 1; dsp = 0; lut = 100; ff = 64 }

let dadd = { latency = 6; dsp = 3; lut = 420; ff = 450 }

let dmul = { latency = 5; dsp = 11; lut = 300; ff = 320 }

let ddiv = { latency = 28; dsp = 0; lut = 3200; ff = 3600 }

let dminmax = { latency = 1; dsp = 0; lut = 180; ff = 128 }

(* integer arithmetic: adds/compares are carry chains; multiplies use a
   DSP48 once operands pass ~16 bits, pure LUT logic below *)
let int_add bits = { latency = 1; dsp = 0; lut = bits; ff = bits }

let int_mul bits =
  if bits >= 32 then { latency = 2; dsp = 3; lut = 50; ff = 60 }
  else if bits >= 16 then { latency = 1; dsp = 1; lut = 30; ff = 35 }
  else { latency = 1; dsp = 0; lut = 45; ff = 30 }

let int_div bits = { latency = bits; dsp = 0; lut = 30 * bits; ff = 32 * bits }

let int_minmax bits = { latency = 1; dsp = 0; lut = bits; ff = bits / 2 }

let add_cost dt =
  match (dt : Dtype.t) with
  | Dtype.F32 -> fadd
  | Dtype.F64 -> dadd
  | _ -> int_add (Dtype.bits dt)

let mul_cost dt =
  match (dt : Dtype.t) with
  | Dtype.F32 -> fmul
  | Dtype.F64 -> dmul
  | _ -> int_mul (Dtype.bits dt)

let div_cost dt =
  match (dt : Dtype.t) with
  | Dtype.F32 -> fdiv
  | Dtype.F64 -> ddiv
  | _ -> int_div (Dtype.bits dt)

let minmax_cost dt =
  match (dt : Dtype.t) with
  | Dtype.F32 -> fminmax
  | Dtype.F64 -> dminmax
  | _ -> int_minmax (Dtype.bits dt)

let load = { latency = 2; dsp = 0; lut = 20; ff = 10 }

let store = { latency = 1; dsp = 0; lut = 15; ff = 8 }

type body = {
  dtype : Dtype.t;
  crit_path : int;
  n_fadd : int;
  n_fmul : int;
  n_fdiv : int;
  n_fminmax : int;
  accesses : (string * int) list;
}

let rec depth dt = function
  | Expr.Load _ -> load.latency
  | Expr.Fconst _ -> 0
  | Expr.Neg a -> depth dt a
  | Expr.Bin (op, a, b) ->
      let d = max (depth dt a) (depth dt b) in
      let l =
        match op with
        | Expr.Add | Expr.Sub -> (add_cost dt).latency
        | Expr.Mul -> (mul_cost dt).latency
        | Expr.Div -> (div_cost dt).latency
        | Expr.Min | Expr.Max -> (minmax_cost dt).latency
      in
      d + l

let analyze_body (c : Compute.t) =
  let dtype = (fst c.Compute.dest).Placeholder.dtype in
  let adds, subs, muls, divs, minmaxes = Expr.op_counts c.Compute.body in
  let tally = Hashtbl.create 8 in
  let bump name =
    Hashtbl.replace tally name (1 + Option.value ~default:0 (Hashtbl.find_opt tally name))
  in
  List.iter
    (fun ((p : Placeholder.t), _) -> bump p.name)
    (Expr.loads c.Compute.body);
  bump (Compute.array_written c);
  {
    dtype;
    crit_path = depth dtype c.Compute.body + store.latency;
    n_fadd = adds + subs;
    n_fmul = muls;
    n_fdiv = divs;
    n_fminmax = minmaxes;
    accesses =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let body_resources b ~copies =
  let mul_cost_k k (c : cost) = (k * c.dsp, k * c.lut, k * c.ff) in
  let parts =
    [
      mul_cost_k (b.n_fadd * copies) (add_cost b.dtype);
      mul_cost_k (b.n_fmul * copies) (mul_cost b.dtype);
      mul_cost_k (b.n_fdiv * copies) (div_cost b.dtype);
      mul_cost_k (b.n_fminmax * copies) (minmax_cost b.dtype);
    ]
  in
  let dsp, lut, ff =
    List.fold_left
      (fun (d, l, f) (d', l', f') -> (d + d', l + l', f + f'))
      (0, 0, 0) parts
  in
  { latency = 0; dsp; lut; ff }

let chain_arith_latency b =
  if b.n_fdiv > 0 then (div_cost b.dtype).latency
  else if b.n_fadd > 0 then (add_cost b.dtype).latency
  else if b.n_fmul > 0 then (mul_cost b.dtype).latency
  else 1
