module W = Pom_wire.Wire

let device =
  W.record6 "device"
    (W.field W.string (fun (d : Device.t) -> d.name))
    (W.field W.int (fun (d : Device.t) -> d.dsp))
    (W.field W.int (fun (d : Device.t) -> d.lut))
    (W.field W.int (fun (d : Device.t) -> d.ff))
    (W.field W.int (fun (d : Device.t) -> d.bram_bits))
    (W.field W.float (fun (d : Device.t) -> d.clock_mhz))
    (fun name dsp lut ff bram_bits clock_mhz ->
      { Device.name; dsp; lut; ff; bram_bits; clock_mhz })

let usage =
  W.record4 "usage"
    (W.field W.int (fun (u : Resource.usage) -> u.dsp))
    (W.field W.int (fun (u : Resource.usage) -> u.lut))
    (W.field W.int (fun (u : Resource.usage) -> u.ff))
    (W.field W.int (fun (u : Resource.usage) -> u.bram))
    (fun dsp lut ff bram -> { Resource.dsp; lut; ff; bram })

let report =
  W.record8 "report"
    (W.field W.int (fun (r : Report.t) -> r.latency))
    (W.field (W.list (W.pair W.int W.int)) (fun (r : Report.t) ->
         r.group_latencies))
    (W.field (W.list (W.pair W.int W.int)) (fun (r : Report.t) -> r.iis))
    (W.field usage (fun (r : Report.t) -> r.usage))
    (W.field W.float (fun (r : Report.t) -> r.power))
    (W.field W.bool (fun (r : Report.t) -> r.feasible))
    (W.field W.float (fun (r : Report.t) -> r.parallelism))
    (W.field (W.list (W.pair W.string W.int)) (fun (r : Report.t) ->
         r.unroll_products))
    (fun latency group_latencies iis usage power feasible parallelism
         unroll_products ->
      {
        Report.latency; group_latencies; iis; usage; power; feasible;
        parallelism; unroll_products;
      })
