type usage = { dsp : int; lut : int; ff : int; bram : int }

let zero = { dsp = 0; lut = 0; ff = 0; bram = 0 }

let add a b =
  {
    dsp = a.dsp + b.dsp;
    lut = a.lut + b.lut;
    ff = a.ff + b.ff;
    bram = a.bram + b.bram;
  }

let max_usage a b =
  {
    dsp = max a.dsp b.dsp;
    lut = max a.lut b.lut;
    ff = max a.ff b.ff;
    bram = max a.bram b.bram;
  }

type composition = Reuse | Dataflow

(* Per-access address/mux logic and per-bank steering logic, dominated by
   the crossbars that wide unrolling requires. *)
let access_lut = 60

let access_ff = 25

let bank_lut = 220

let bank_ff = 50

let base_lut = 1200

let base_ff = 900

let bram18_bits = 18432

let bram18_blocks (d : Device.t) = d.Device.bram_bits / bram18_bits

let group_usage profiles (eval : Latency.group_eval) =
  List.fold_left
    (fun acc (p : Summary.t) ->
      let name = Pom_polyir.Stmt_poly.name p.Summary.stmt in
      let copies =
        Option.value ~default:1 (List.assoc_opt name eval.Latency.phys_copies)
      in
      let ops = Opchar.body_resources p.Summary.body ~copies in
      let n_accesses =
        List.fold_left (fun a (_, n) -> a + n) 0 p.Summary.body.Opchar.accesses
      in
      let pipeline_regs =
        if eval.Latency.pipelined then
          copies * p.Summary.body.Opchar.crit_path * 16
        else 0
      in
      add acc
        {
          dsp = ops.Opchar.dsp;
          lut = ops.Opchar.lut + (n_accesses * copies * access_lut);
          ff = ops.Opchar.ff + (n_accesses * copies * access_ff) + pipeline_regs;
          bram = 0;
        })
    zero profiles

(* On-chip storage: an array is buffered in BRAM when it fits in a quarter
   of the device's memory (so several arrays can coexist); each partition
   bank takes at least one BRAM18.  Bigger arrays stay external. *)
let bram_of_array (device : Device.t) banks bits =
  if bits > device.Device.bram_bits / 4 then 0
  else
    let banks = max 1 banks in
    let per_bank = (bits / banks / bram18_bits) + 1 in
    banks * per_bank

(* arrays touched by a set of profiles, each once, with bit sizes *)
let arrays_of profiles =
  let arrays = Hashtbl.create 8 in
  List.iter
    (fun (p : Summary.t) ->
      let compute = p.Summary.stmt.Pom_polyir.Stmt_poly.compute in
      List.iter
        (fun (ph : Pom_dsl.Placeholder.t) ->
          Hashtbl.replace arrays ph.Pom_dsl.Placeholder.name
            (Pom_dsl.Placeholder.bits ph))
        (Pom_dsl.Compute.placeholders compute))
    profiles;
  Hashtbl.fold (fun a bits acc -> (a, bits) :: acc) arrays []

let banks ~partitions a = max 1 (List.fold_left ( * ) 1 (partitions a))

let group_bram ~device ~partitions arrays =
  List.fold_left
    (fun acc (a, bits) -> acc + bram_of_array device (banks ~partitions a) bits)
    0 arrays

let combine ~composition ~partitions groups arrays =
  (* on-chip buffers follow the composition: under reuse only the active
     group's working set is resident (others stream from external memory),
     under dataflow every stage's buffers coexist *)
  let operators =
    match composition with
    | Reuse -> List.fold_left max_usage zero groups
    | Dataflow -> List.fold_left add zero groups
  in
  (* partition steering logic exists once per physical array *)
  let seen = Hashtbl.create 16 in
  let banking =
    List.fold_left
      (fun acc a ->
        if Hashtbl.mem seen a then acc
        else begin
          Hashtbl.add seen a ();
          let n = banks ~partitions a in
          add acc { dsp = 0; lut = n * bank_lut; ff = n * bank_ff; bram = 0 }
        end)
      zero arrays
  in
  add operators (add banking { dsp = 0; lut = base_lut; ff = base_ff; bram = 0 })

let power u =
  0.08
  +. (0.0012 *. float_of_int u.dsp)
  +. (3.0e-6 *. float_of_int u.ff)
  +. (4.0e-6 *. float_of_int u.lut)
  +. (0.0004 *. float_of_int u.bram)

let fits (d : Device.t) u =
  u.dsp <= d.Device.dsp && u.lut <= d.Device.lut && u.ff <= d.Device.ff
  && u.bram <= bram18_blocks d

let pp ppf u =
  Format.fprintf ppf "DSP %d, LUT %d, FF %d, BRAM18 %d" u.dsp u.lut u.ff u.bram
