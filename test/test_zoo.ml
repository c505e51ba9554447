(* Tests for the set-dueling substrate and the policy zoo that rides on
   it: the DRRIP port is pinned byte-identical to its historical inline
   implementation, every registry entry satisfies the policy contract
   under random traffic, and the fill-decision bypass hook is accounted
   correctly by the cache core. *)

module Geometry = Ripple_cache.Geometry
module Cache = Ripple_cache.Cache
module Access = Ripple_cache.Access
module Stats = Ripple_cache.Stats
module Policy = Ripple_cache.Policy
module Dueling = Ripple_cache.Dueling
module Registry = Ripple_cache.Registry
module Rrip = Ripple_cache.Rrip

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ----------------------------- Dueling ------------------------------ *)

let test_dueling_roles () =
  let d = Dueling.make ~sets:64 in
  let expect set role = Dueling.role d ~set = role in
  List.iter
    (fun set -> checkb (Printf.sprintf "set %d leads A" set) true (expect set Dueling.Leader_a))
    [ 0; 16; 32; 48 ];
  List.iter
    (fun set -> checkb (Printf.sprintf "set %d leads B" set) true (expect set Dueling.Leader_b))
    [ 8; 24; 40; 56 ];
  List.iter
    (fun set -> checkb (Printf.sprintf "set %d follows" set) true (expect set Dueling.Follower))
    [ 1; 7; 9; 15; 17; 63 ];
  (* Tiny caches still get their one A leader even when sets < spacing. *)
  let tiny = Dueling.make ~sets:2 in
  checkb "set 0 leads A in a 2-set cache" true (Dueling.role tiny ~set:0 = Dueling.Leader_a);
  checkb "set 1 follows" true (Dueling.role tiny ~set:1 = Dueling.Follower)

let test_dueling_training_and_flips () =
  let d = Dueling.make ~sets:64 in
  let mid = ((1 lsl Dueling.psel_bits) - 1) / 2 in
  checki "psel starts at midpoint" mid (Dueling.psel d);
  checkb "followers start on A" false (Dueling.selects_b d ~set:1);
  checkb "A leader pinned to A" false (Dueling.selects_b d ~set:0);
  checkb "B leader pinned to B" true (Dueling.selects_b d ~set:8);
  Dueling.train_miss d ~set:0;
  (* One A-leader miss pushes PSEL past the midpoint: followers flip. *)
  checki "a_misses" 1 (Dueling.a_misses d);
  checkb "followers now on B" true (Dueling.selects_b d ~set:1);
  checki "one flip" 1 (Dueling.flips d);
  Dueling.train_miss d ~set:8;
  checki "b_misses" 1 (Dueling.b_misses d);
  checkb "followers back on A" false (Dueling.selects_b d ~set:1);
  checki "two flips" 2 (Dueling.flips d);
  Dueling.train_miss d ~set:1;
  checki "follower misses train nothing" mid (Dueling.psel d)

let test_dueling_saturation () =
  let d = Dueling.make ~sets:64 in
  for _ = 1 to 1000 do
    Dueling.train_miss d ~set:0
  done;
  checki "psel saturates high" 1023 (Dueling.psel d);
  for _ = 1 to 2000 do
    Dueling.train_miss d ~set:8
  done;
  checki "psel floors at zero" 0 (Dueling.psel d);
  checki "storage is the 10-bit psel counter" 10 (Dueling.storage_bits d)

(* ----------------------- DRRIP byte-identity ------------------------ *)

(* The historical inline DRRIP, reproduced verbatim (modulo the fields
   the policy record has since grown): private leader mapping, PSEL
   counter, bimodal throttle and victim scan.  The port onto [Dueling]
   must make decisions indistinguishable from this reference on any
   trace. *)
let reference_rrpv_bits = 2

let reference_victim rrpv ~rrpv_max ~ways ~set =
  let base = set * ways in
  let rec find () =
    let found = ref (-1) in
    (let way = ref 0 in
     while !found < 0 && !way < ways do
       if rrpv.(base + !way) = rrpv_max then found := !way;
       incr way
     done);
    if !found >= 0 then !found
    else begin
      for way = 0 to ways - 1 do
        rrpv.(base + way) <- min rrpv_max (rrpv.(base + way) + 1)
      done;
      find ()
    end
  in
  find ()

let reference_drrip ~sets ~ways =
  let rrpv_max = (1 lsl reference_rrpv_bits) - 1 in
  let rrpv_long = rrpv_max - 1 in
  let psel_bits = 10 in
  let psel_max = (1 lsl psel_bits) - 1 in
  let brrip_throttle = 32 in
  let rrpv = Array.make (sets * ways) rrpv_max in
  let psel = ref (psel_max / 2) in
  let brrip_counter = ref 0 in
  let n_leaders = max 1 (sets / 16) in
  let role set =
    if set mod 16 = 0 && set / 16 < n_leaders then `Leader_srrip
    else if set mod 16 = 8 && set / 16 < n_leaders then `Leader_brrip
    else `Follower
  in
  let use_brrip set =
    match role set with
    | `Leader_srrip -> false
    | `Leader_brrip -> true
    | `Follower -> !psel > psel_max / 2
  in
  let on_fill ~set ~way _ =
    (match role set with
    | `Leader_srrip -> psel := min psel_max (!psel + 1)
    | `Leader_brrip -> psel := max 0 (!psel - 1)
    | `Follower -> ());
    let insertion =
      if use_brrip set then begin
        incr brrip_counter;
        if !brrip_counter mod brrip_throttle = 0 then rrpv_long else rrpv_max
      end
      else rrpv_long
    in
    rrpv.((set * ways) + way) <- insertion
  in
  {
    Policy.name = "drrip-reference";
    on_hit = (fun ~set ~way _ -> rrpv.((set * ways) + way) <- 0);
    on_fill;
    fill_decision = Policy.nop_fill_decision;
    may_bypass = false;
    victim = (fun ~set -> reference_victim rrpv ~rrpv_max ~ways ~set);
    on_eviction = Policy.nop_evict;
    on_invalidate = (fun ~set ~way -> rrpv.((set * ways) + way) <- rrpv_max);
    demote = (fun ~set ~way -> rrpv.((set * ways) + way) <- rrpv_max);
    storage_bits = (sets * ways * reference_rrpv_bits) + psel_bits;
    duel = None;
  }

let geometry_sets sets = Geometry.v ~size_bytes:(sets * 4 * 64) ~ways:4
let geometry_64x4 = geometry_sets 64

(* The zoo properties run on a single-set cache, a 2-set cache (no
   dueling B leader, one Hawkeye sampled set) and the 64-set default. *)
let zoo_geometries = List.map geometry_sets [ 1; 2; 64 ]

let random_trace seed n =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      let line = Random.State.int st 2048 in
      if Random.State.int st 4 = 0 then Access.prefetch ~line ~block:0
      else Access.demand ~line ~block:0)

let replay policy trace =
  let c = Cache.create ~geometry:geometry_64x4 ~policy () in
  let hits = ref 0 in
  Array.iter (fun acc -> if Cache.access c acc = Cache.Hit then incr hits) trace;
  let s = Cache.stats c in
  (!hits, s.Stats.demand_misses, s.Stats.evictions)

let drrip_byte_identity =
  QCheck.Test.make ~count:20 ~name:"DRRIP on Dueling is byte-identical to inline DRRIP"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let trace = random_trace seed 6_000 in
      replay Rrip.drrip trace = replay reference_drrip trace)

let test_drrip_identity_storage () =
  let p = Rrip.drrip ~sets:64 ~ways:4 in
  let r = reference_drrip ~sets:64 ~ways:4 in
  checki "storage accounting unchanged by the port" r.Policy.storage_bits p.Policy.storage_bits

(* ----------------- Policy-contract properties (zoo) ------------------ *)

(* Wrap a policy so every victim consultation is range-checked. *)
let range_checked ~ways (p : Policy.t) =
  {
    p with
    Policy.victim =
      (fun ~set ->
        let v = p.Policy.victim ~set in
        if v < 0 || v >= ways then
          Alcotest.failf "%s: victim %d out of range [0,%d)" p.Policy.name v ways;
        v);
  }

(* [prop ~geometry name] for every registry entry on every zoo geometry. *)
let for_zoo prop =
  List.for_all (fun geometry -> List.for_all (prop ~geometry) Registry.names) zoo_geometries

let zoo_victims_in_range =
  QCheck.Test.make ~count:5 ~name:"every zoo policy's victims stay in range"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let trace = random_trace seed 4_000 in
      for_zoo (fun ~geometry name ->
          let factory ~sets ~ways = range_checked ~ways (Registry.factory name ~sets ~ways) in
          let c = Cache.create ~geometry ~policy:factory () in
          Array.iter (fun acc -> ignore (Cache.access c acc)) trace;
          true))

let zoo_psel_never_overflows =
  QCheck.Test.make ~count:5 ~name:"duelling policies keep PSEL within its bit width"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let trace = random_trace seed 4_000 in
      for_zoo (fun ~geometry name ->
          let c = Cache.create ~geometry ~policy:(Registry.factory name) () in
          Array.iter (fun acc -> ignore (Cache.access c acc)) trace;
          match Cache.duel c with
          | None -> true
          | Some d ->
            let max = (1 lsl Dueling.psel_bits) - 1 in
            Dueling.psel d >= 0 && Dueling.psel d <= max))

(* ------------------------ Bypass accounting ------------------------- *)

let always_bypass ~sets:_ ~ways:_ =
  {
    Policy.name = "always-bypass";
    on_hit = Policy.nop_access;
    on_fill = (fun ~set:_ ~way:_ _ -> Alcotest.fail "bypassed fill reached on_fill");
    fill_decision = (fun ~set:_ _ -> `Bypass);
    may_bypass = true;
    victim = (fun ~set:_ -> Alcotest.fail "bypassed fill consulted victim");
    on_eviction = Policy.nop_evict;
    on_invalidate = Policy.nop_way;
    demote = Policy.nop_way;
    storage_bits = 0;
    duel = None;
  }

let test_bypass_accounting () =
  let tiny = Geometry.v ~size_bytes:(2 * 2 * 64) ~ways:2 in
  let c = Cache.create ~geometry:tiny ~policy:always_bypass () in
  checkb "bypass capability surfaces" true (Cache.may_bypass c);
  ignore (Cache.access c (Access.demand ~line:0 ~block:0));
  ignore (Cache.access c (Access.demand ~line:0 ~block:0));
  ignore (Cache.access c (Access.prefetch ~line:2 ~block:0));
  let s = Cache.stats c in
  checkb "line never installed" false (Cache.contains c 0);
  checki "all three misses bypassed" 3 s.Stats.fill_bypasses;
  checki "demand misses still counted" 2 s.Stats.demand_misses;
  checki "bypassed prefetch is not a prefetch fill" 0 s.Stats.prefetch_fills;
  checki "nothing was evicted" 0 s.Stats.evictions

let test_install_policies_never_bypass () =
  let c = Cache.create ~geometry:geometry_64x4 ~policy:(Registry.factory "lru") () in
  checkb "lru cannot bypass" false (Cache.may_bypass c);
  ignore (Cache.access c (Access.demand ~line:0 ~block:0));
  checki "no bypasses" 0 (Cache.stats c).Stats.fill_bypasses

let test_ship_sb_bypasses_streams () =
  (* A long never-reused unit-stride sweep is the textbook stream: the
     detector opens its window, dead signatures stop being installed. *)
  let c = Cache.create ~geometry:geometry_64x4 ~policy:(Registry.factory "ship-sb") () in
  for rep = 0 to 40 do
    for i = 0 to 511 do
      ignore (Cache.access c (Access.demand ~line:(rep * 4096 + (i * 64)) ~block:0))
    done
  done;
  checkb "streaming sweep triggers bypasses" true ((Cache.stats c).Stats.fill_bypasses > 0)

let qcheck = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "zoo.dueling",
      [
        Alcotest.test_case "leader-set roles" `Quick test_dueling_roles;
        Alcotest.test_case "training and flips" `Quick test_dueling_training_and_flips;
        Alcotest.test_case "psel saturation" `Quick test_dueling_saturation;
      ] );
    ( "zoo.drrip-port",
      [
        qcheck drrip_byte_identity;
        Alcotest.test_case "storage accounting unchanged" `Quick test_drrip_identity_storage;
      ] );
    ( "zoo.properties",
      [
        qcheck zoo_victims_in_range;
        qcheck zoo_psel_never_overflows;
      ] );
    ( "zoo.bypass",
      [
        Alcotest.test_case "bypass accounting" `Quick test_bypass_accounting;
        Alcotest.test_case "install-only policies" `Quick test_install_policies_never_bypass;
        Alcotest.test_case "ship-sb bypasses streams" `Quick test_ship_sb_bypasses_streams;
      ] );
  ]
