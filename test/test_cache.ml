(* Tests for ripple.cache: geometry, the set-associative core, hint
   semantics, and the replacement policies. *)

module Geometry = Ripple_cache.Geometry
module Cache = Ripple_cache.Cache
module Access = Ripple_cache.Access
module Stats = Ripple_cache.Stats
module Policy = Ripple_cache.Policy
module Lru = Ripple_cache.Lru
module Random_policy = Ripple_cache.Random_policy
module Rrip = Ripple_cache.Rrip
module Ghrp = Ripple_cache.Ghrp
module Hawkeye = Ripple_cache.Hawkeye

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* A tiny 2-set, 2-way geometry makes eviction behaviour fully
   observable: lines with equal parity share a set. *)
let tiny = Geometry.v ~size_bytes:(2 * 2 * 64) ~ways:2
let demand line = Access.demand ~line ~block:0
let prefetch line = Access.prefetch ~line ~block:0

let new_cache ?(policy = Lru.make) () = Cache.create ~geometry:tiny ~policy ()

(* ----------------------------- Geometry ----------------------------- *)

let test_geometry_derived () =
  checki "l1i sets" 64 (Geometry.sets Geometry.l1i);
  checki "l1i lines" 512 (Geometry.lines Geometry.l1i);
  checki "l2 sets" 1024 (Geometry.sets Geometry.l2);
  checki "tiny sets" 2 (Geometry.sets tiny);
  checki "set of line" 1 (Geometry.set_of_line tiny 3)

(* ---------------------------- Cache core ----------------------------- *)

let test_cache_hit_miss () =
  let c = new_cache () in
  checkb "first access misses" true (Cache.access c (demand 0) = Cache.Miss);
  checkb "second access hits" true (Cache.access c (demand 0) = Cache.Hit);
  checkb "contains" true (Cache.contains c 0);
  checkb "not contains" false (Cache.contains c 2)

let test_cache_lru_eviction () =
  let c = new_cache () in
  (* Set 0 holds lines 0,2,4,...; 2 ways. *)
  ignore (Cache.access c (demand 0));
  ignore (Cache.access c (demand 2));
  ignore (Cache.access c (demand 0));
  (* LRU order now: 2 oldest. *)
  ignore (Cache.access c (demand 4));
  checkb "victim was 2" false (Cache.contains c 2);
  checkb "0 survives" true (Cache.contains c 0);
  checkb "4 resident" true (Cache.contains c 4)

let test_cache_sets_independent () =
  let c = new_cache () in
  ignore (Cache.access c (demand 0));
  ignore (Cache.access c (demand 1));
  ignore (Cache.access c (demand 3));
  ignore (Cache.access c (demand 5));
  (* Set 1 churned; set 0 untouched. *)
  checkb "set 0 untouched" true (Cache.contains c 0)

let test_cache_stats () =
  let c = new_cache () in
  ignore (Cache.access c (demand 0));
  ignore (Cache.access c (demand 0));
  ignore (Cache.access c (demand 2));
  ignore (Cache.access c (demand 4));
  let s = Cache.stats c in
  checki "demand accesses" 4 s.Stats.demand_accesses;
  checki "demand misses" 3 s.Stats.demand_misses;
  checki "cold misses" 3 s.Stats.demand_misses_cold;
  checki "evictions" 1 s.Stats.evictions;
  checki "replacement decisions" 1 s.Stats.replacement_decisions

let test_cache_cold_classification () =
  let c = new_cache () in
  ignore (Cache.access c (demand 0));
  ignore (Cache.access c (demand 2));
  ignore (Cache.access c (demand 4)); (* evicts 0 *)
  ignore (Cache.access c (demand 0)); (* miss, but not cold *)
  let s = Cache.stats c in
  checki "four misses" 4 s.Stats.demand_misses;
  checki "three cold" 3 s.Stats.demand_misses_cold

let test_cache_prefetch_semantics () =
  let c = new_cache () in
  checkb "prefetch fills" true (Cache.access c (prefetch 0) = Cache.Miss);
  checkb "prefetch hit is no-op" true (Cache.access c (prefetch 0) = Cache.Hit);
  checkb "demand after prefetch hits" true (Cache.access c (demand 0) = Cache.Hit);
  let s = Cache.stats c in
  checki "prefetch accesses" 2 s.Stats.prefetch_accesses;
  checki "prefetch fills" 1 s.Stats.prefetch_fills;
  checki "no demand misses" 0 s.Stats.demand_misses

let test_cache_invalidate () =
  let c = new_cache () in
  ignore (Cache.access c (demand 0));
  ignore (Cache.access c (demand 2));
  Cache.invalidate c 0;
  checkb "gone" false (Cache.contains c 0);
  checkb "2 unaffected" true (Cache.contains c 2);
  (* Next fill in the set lands in the hinted way: a software-initiated
     replacement decision. *)
  ignore (Cache.access c (demand 4));
  checkb "2 still resident" true (Cache.contains c 2);
  let s = Cache.stats c in
  checki "invalidate hits" 1 s.Stats.invalidate_hits;
  checki "hinted fill" 1 s.Stats.hinted_fills;
  checki "replacement decisions" 1 s.Stats.replacement_decisions;
  checki "no hardware eviction" 0 s.Stats.evictions;
  check (Alcotest.float 1e-9) "coverage" 1.0 (Stats.coverage s)

let test_cache_invalidate_absent () =
  let c = new_cache () in
  Cache.invalidate c 0;
  checki "counted as miss" 1 (Cache.stats c).Stats.invalidate_misses

let test_cache_demote_lru () =
  let c = new_cache () in
  ignore (Cache.access c (demand 0));
  ignore (Cache.access c (demand 2));
  (* 0 is LRU; demote 2 below it. *)
  Cache.demote c 2;
  ignore (Cache.access c (demand 4));
  checkb "demoted 2 evicted" false (Cache.contains c 2);
  checkb "0 survives" true (Cache.contains c 0);
  checki "demotes counted" 1 (Cache.stats c).Stats.demotes

let test_cache_flush () =
  let c = new_cache () in
  ignore (Cache.access c (demand 0));
  Cache.flush c;
  checkb "flushed" false (Cache.contains c 0);
  checki "stats preserved" 1 (Cache.stats c).Stats.demand_misses

let test_cache_resident_and_occupancy () =
  let c = new_cache () in
  ignore (Cache.access c (demand 0));
  ignore (Cache.access c (demand 1));
  ignore (Cache.access c (demand 2));
  check (Alcotest.list Alcotest.int) "residents" [ 0; 1; 2 ]
    (List.sort compare (Cache.resident_lines c));
  checki "set 0 occupancy" 2 (Cache.occupancy c ~set:0);
  checki "set 1 occupancy" 1 (Cache.occupancy c ~set:1)

(* Occupancy invariant under arbitrary access/invalidate interleavings. *)
let prop_cache_capacity =
  QCheck.Test.make ~count:200 ~name:"cache never exceeds capacity; contains after access"
    QCheck.(small_list (pair bool (int_range 0 40)))
    (fun ops ->
      let c = new_cache () in
      List.for_all
        (fun (is_access, line) ->
          if is_access then begin
            ignore (Cache.access c (demand line));
            Cache.contains c line
          end
          else begin
            Cache.invalidate c line;
            not (Cache.contains c line)
          end
          && List.length (Cache.resident_lines c) <= Geometry.lines tiny)
        ops)

(* ----------------------------- Policies ----------------------------- *)

let run_policy policy accesses =
  let c = Cache.create ~geometry:tiny ~policy () in
  List.iter (fun line -> ignore (Cache.access c (demand line))) accesses;
  c

let test_random_policy_bounded () =
  let c = run_policy (Random_policy.make ~seed:3) [ 0; 2; 4; 6; 8; 10; 0; 2; 4 ] in
  checki "occupancy stays full" 2 (Cache.occupancy c ~set:0)

let test_random_demote_is_victim () =
  let c = Cache.create ~geometry:tiny ~policy:(Random_policy.make ~seed:3) () in
  ignore (Cache.access c (demand 0));
  ignore (Cache.access c (demand 2));
  Cache.demote c 0;
  ignore (Cache.access c (demand 4));
  checkb "demoted way chosen" false (Cache.contains c 0);
  checkb "other way kept" true (Cache.contains c 2)

let test_srrip_promotes_on_reuse () =
  (* Line 0 is re-referenced, line 2 is a scan: the scan line is evicted
     first even though it is more recent. *)
  let c = run_policy Rrip.srrip [ 0; 0; 2; 4 ] in
  checkb "reused line kept" true (Cache.contains c 0);
  checkb "scan line evicted" false (Cache.contains c 2)

let test_srrip_victim_progress () =
  (* All-new lines still find victims (aging terminates). *)
  let c = run_policy Rrip.srrip [ 0; 2; 4; 6; 8; 10 ] in
  checki "full set" 2 (Cache.occupancy c ~set:0)

let test_drrip_behaves () =
  let c =
    run_policy Rrip.drrip
      (List.concat_map (fun i -> [ i * 2; i * 2 ]) (List.init 40 (fun i -> i)))
  in
  checki "full set" 2 (Cache.occupancy c ~set:0)

let test_ghrp_tracks_and_survives () =
  (* A hot line interleaved with a cold scan: GHRP must keep working and
     serve hits on the hot line. *)
  let accesses = List.concat_map (fun i -> [ 0; (i * 2) mod 24 ]) (List.init 200 (fun i -> i)) in
  let c = run_policy Ghrp.make accesses in
  checki "full set" 2 (Cache.occupancy c ~set:0);
  checkb "some hits happened" true ((Cache.stats c).Stats.demand_misses < 400)

let test_hawkeye_mostly_friendly () =
  (* A looping pattern that fits: Hawkeye should behave LRU-ish and
     classify PCs as cache-friendly (the paper's >99% observation). *)
  let geometry = Geometry.l1i in
  let c = Cache.create ~geometry ~policy:(Hawkeye.make ~ehc:false) () in
  for _ = 1 to 200 do
    for line = 0 to 200 do
      ignore (Cache.access c (Access.demand ~line ~block:line))
    done
  done;
  checkb "friendly dominates" true (Hawkeye.stats_friendly_fraction () > 0.5)

let test_policy_storage_accounting () =
  let sets = 64 and ways = 8 in
  checki "lru bits" 512 (Lru.make ~sets ~ways).Policy.storage_bits;
  checki "srrip bits" 1024 (Rrip.srrip ~sets ~ways).Policy.storage_bits;
  checki "random bits" 0 (Random_policy.make ~seed:0 ~sets ~ways).Policy.storage_bits;
  (* GHRP ~4.1 KiB, Hawkeye ~5.2 KiB per Table I. *)
  let ghrp_bytes = (Ghrp.make ~sets ~ways).Policy.storage_bits / 8 in
  checkb "ghrp ~4KiB" true (ghrp_bytes > 3500 && ghrp_bytes < 4800);
  let hawkeye_bytes = (Hawkeye.make ~ehc:false ~sets ~ways).Policy.storage_bits / 8 in
  checkb "hawkeye ~5.2KiB" true (hawkeye_bytes > 4500 && hawkeye_bytes < 6000)

(* LRU property: accessing up to [ways] distinct lines of one set keeps
   them all resident. *)
let prop_lru_retention =
  QCheck.Test.make ~count:200 ~name:"LRU keeps the most recent <ways> lines of a set"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_range 0 19))
    (fun lines ->
      let c = new_cache () in
      List.iter (fun i -> ignore (Cache.access c (demand (2 * i)))) lines;
      (* The two most recently accessed distinct even lines must hit. *)
      let recent_first = List.rev_map (fun i -> 2 * i) lines in
      let distinct =
        (* first occurrences of [recent_first], most recent first *)
        List.rev
          (List.fold_left
             (fun acc x -> if List.mem x acc then acc else x :: acc)
             [] recent_first)
      in
      match distinct with
      | last :: second :: _ -> Cache.contains c last && Cache.contains c second
      | [ only ] -> Cache.contains c only
      | [] -> true)

let qcheck = QCheck_alcotest.to_alcotest

let suites =
  [
    ("cache.geometry", [ Alcotest.test_case "derived" `Quick test_geometry_derived ]);
    ( "cache.core",
      [
        Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "sets independent" `Quick test_cache_sets_independent;
        Alcotest.test_case "stats" `Quick test_cache_stats;
        Alcotest.test_case "cold classification" `Quick test_cache_cold_classification;
        Alcotest.test_case "prefetch semantics" `Quick test_cache_prefetch_semantics;
        Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
        Alcotest.test_case "invalidate absent" `Quick test_cache_invalidate_absent;
        Alcotest.test_case "demote (lru)" `Quick test_cache_demote_lru;
        Alcotest.test_case "flush" `Quick test_cache_flush;
        Alcotest.test_case "resident/occupancy" `Quick test_cache_resident_and_occupancy;
        qcheck prop_cache_capacity;
      ] );
    ( "cache.policies",
      [
        Alcotest.test_case "random bounded" `Quick test_random_policy_bounded;
        Alcotest.test_case "random demote" `Quick test_random_demote_is_victim;
        Alcotest.test_case "srrip reuse" `Quick test_srrip_promotes_on_reuse;
        Alcotest.test_case "srrip victim progress" `Quick test_srrip_victim_progress;
        Alcotest.test_case "drrip behaves" `Quick test_drrip_behaves;
        Alcotest.test_case "ghrp survives" `Quick test_ghrp_tracks_and_survives;
        Alcotest.test_case "hawkeye friendly" `Quick test_hawkeye_mostly_friendly;
        Alcotest.test_case "storage accounting" `Quick test_policy_storage_accounting;
        qcheck prop_lru_retention;
      ] );
  ]
