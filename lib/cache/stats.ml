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

let copy t =
  {
    demand_accesses = t.demand_accesses;
    demand_misses = t.demand_misses;
    demand_misses_cold = t.demand_misses_cold;
    prefetch_accesses = t.prefetch_accesses;
    prefetch_fills = t.prefetch_fills;
    evictions = t.evictions;
    replacement_decisions = t.replacement_decisions;
    hinted_fills = t.hinted_fills;
    invalidate_hits = t.invalidate_hits;
    invalidate_misses = t.invalidate_misses;
    demotes = t.demotes;
    fill_bypasses = t.fill_bypasses;
  }

let copy_into ~src ~dst =
  dst.demand_accesses <- src.demand_accesses;
  dst.demand_misses <- src.demand_misses;
  dst.demand_misses_cold <- src.demand_misses_cold;
  dst.prefetch_accesses <- src.prefetch_accesses;
  dst.prefetch_fills <- src.prefetch_fills;
  dst.evictions <- src.evictions;
  dst.replacement_decisions <- src.replacement_decisions;
  dst.hinted_fills <- src.hinted_fills;
  dst.invalidate_hits <- src.invalidate_hits;
  dst.invalidate_misses <- src.invalidate_misses;
  dst.demotes <- src.demotes;
  dst.fill_bypasses <- src.fill_bypasses

let accumulate_delta ~into ~before ~after =
  into.demand_accesses <- into.demand_accesses + after.demand_accesses - before.demand_accesses;
  into.demand_misses <- into.demand_misses + after.demand_misses - before.demand_misses;
  into.demand_misses_cold <-
    into.demand_misses_cold + after.demand_misses_cold - before.demand_misses_cold;
  into.prefetch_accesses <-
    into.prefetch_accesses + after.prefetch_accesses - before.prefetch_accesses;
  into.prefetch_fills <- into.prefetch_fills + after.prefetch_fills - before.prefetch_fills;
  into.evictions <- into.evictions + after.evictions - before.evictions;
  into.replacement_decisions <-
    into.replacement_decisions + after.replacement_decisions - before.replacement_decisions;
  into.hinted_fills <- into.hinted_fills + after.hinted_fills - before.hinted_fills;
  into.invalidate_hits <-
    into.invalidate_hits + after.invalidate_hits - before.invalidate_hits;
  into.invalidate_misses <-
    into.invalidate_misses + after.invalidate_misses - before.invalidate_misses;
  into.demotes <- into.demotes + after.demotes - before.demotes;
  into.fill_bypasses <- into.fill_bypasses + after.fill_bypasses - before.fill_bypasses

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
