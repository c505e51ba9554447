type t = {
  mutable demand_accesses : int;
  mutable demand_misses : int;
  mutable demand_misses_cold : int;
  mutable prefetch_accesses : int;
  mutable prefetch_fills : int;
  mutable evictions : int;
  mutable replacement_decisions : int;
  mutable hinted_fills : int;
  mutable invalidate_hits : int;
  mutable invalidate_misses : int;
  mutable demotes : int;
  mutable fill_bypasses : int;
}

let create () =
  {
    demand_accesses = 0;
    demand_misses = 0;
    demand_misses_cold = 0;
    prefetch_accesses = 0;
    prefetch_fills = 0;
    evictions = 0;
    replacement_decisions = 0;
    hinted_fills = 0;
    invalidate_hits = 0;
    invalidate_misses = 0;
    demotes = 0;
    fill_bypasses = 0;
  }

let reset t =
  t.demand_accesses <- 0;
  t.demand_misses <- 0;
  t.demand_misses_cold <- 0;
  t.prefetch_accesses <- 0;
  t.prefetch_fills <- 0;
  t.evictions <- 0;
  t.replacement_decisions <- 0;
  t.hinted_fills <- 0;
  t.invalidate_hits <- 0;
  t.invalidate_misses <- 0;
  t.demotes <- 0;
  t.fill_bypasses <- 0

let total_accesses t = t.demand_accesses + t.prefetch_accesses

let mpki t ~instructions =
  if instructions = 0 then 0.0
  else 1000.0 *. Float.of_int t.demand_misses /. Float.of_int instructions

let demand_miss_ratio t =
  if t.demand_accesses = 0 then 0.0
  else Float.of_int t.demand_misses /. Float.of_int t.demand_accesses

let coverage t =
  if t.replacement_decisions = 0 then 0.0
  else Float.of_int t.hinted_fills /. Float.of_int t.replacement_decisions
