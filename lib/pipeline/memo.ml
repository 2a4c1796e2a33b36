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
