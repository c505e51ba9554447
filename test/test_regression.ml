(* Golden regression values.

   These pin the exact behaviour of the full stack (CFG generation,
   executor, prefetchers, cache, oracle) for one fixed configuration.
   They exist to catch unintended behavioural drift during refactoring;
   a deliberate model change is expected to update them (and re-run the
   benches so EXPERIMENTS.md stays truthful). *)

module W = Ripple_workloads
module Simulator = Ripple_cpu.Simulator
module Config = Ripple_cpu.Config
module Cache = Ripple_cache
module Registry = Ripple_cache.Registry
module Dueling = Ripple_cache.Dueling

let checki = Alcotest.check Alcotest.int

let setup =
  lazy
    (let w = W.Cfg_gen.generate W.Apps.kafka in
     let trace = W.Executor.run w ~input:W.Executor.eval_inputs.(0) ~n_instrs:300_000 in
     (w.W.Cfg_gen.program, trace))

let test_trace_shape () =
  let _, trace = Lazy.force setup in
  checki "trace length" 30_938 (Array.length trace)

let run prefetcher =
  let program, trace = Lazy.force setup in
  Simulator.run ~program ~trace ~policy:Cache.Lru.make ~prefetcher ()

let test_lru_none () =
  let r = run Simulator.prefetcher_none in
  checki "instructions" 300_003 r.Simulator.instructions;
  checki "misses" 2_859 r.Simulator.demand_misses

let test_lru_nlp () = checki "misses" 1_813 (run (Simulator.prefetcher_nlp ?config:None)).Simulator.demand_misses
let test_lru_fdip () = checki "misses" 1_088 (run (Simulator.prefetcher_fdip ?config:None)).Simulator.demand_misses

let test_oracle () =
  let program, trace = Lazy.force setup in
  let r =
    Simulator.oracle ~mode:Cache.Belady.Min ~program ~trace
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checki "oracle misses" 1_920 r.Simulator.demand_misses

let test_stream_length () =
  let program, trace = Lazy.force setup in
  let stream = Simulator.record_stream ~program ~trace ~prefetcher:Simulator.prefetcher_none () in
  checki "stream length" 49_115 (Cache.Access_stream.length stream)

(* The policy zoo, every registry entry at its defaults under FDIP:
   (demand misses, evictions, fill bypasses, final (PSEL, flips) of the
   set duel when the policy has one). *)
let zoo_golden =
  [
    ("lru", (1_088, 2_417, 0, None));
    ("ghrp", (1_088, 2_417, 0, None));
    ("srrip", (1_095, 2_470, 0, None));
    ("drrip", (1_098, 2_481, 0, Some (462, 0)));
    ("ship", (1_095, 2_466, 0, None));
    ("hawkeye", (1_116, 2_568, 0, None));
    ("trrip", (1_094, 2_467, 0, Some (476, 0)));
    ("ehc-hawkeye", (1_122, 2_589, 0, Some (473, 0)));
    ("ship-sb", (1_088, 2_462, 0, Some (478, 0)));
    ("random", (1_101, 2_472, 0, None));
  ]

let zoo_storage_golden =
  [
    ("lru", 512);
    ("ghrp", 33_296);
    ("srrip", 1_024);
    ("drrip", 1_034);
    ("ship", 16_896);
    ("hawkeye", 42_304);
    ("trrip", 16_906);
    ("ehc-hawkeye", 49_994);
    ("ship-sb", 6_666);
    ("random", 0);
  ]

let run_entry name =
  let program, trace = Lazy.force setup in
  let live = ref None in
  let policy ~sets ~ways =
    let p = Registry.factory name ~sets ~ways in
    live := Some p;
    p
  in
  let r =
    Simulator.run ~program ~trace ~policy ~prefetcher:(Simulator.prefetcher_fdip ?config:None) ()
  in
  let duel =
    Option.bind !live (fun (p : Cache.Policy.t) -> p.Cache.Policy.duel)
    |> Option.map (fun d -> (Dueling.psel d, Dueling.flips d))
  in
  (r.Simulator.demand_misses, r.Simulator.l1i.Cache.Stats.evictions,
   r.Simulator.l1i.Cache.Stats.fill_bypasses, duel)

let test_zoo_entry name (misses, evictions, bypasses, duel) () =
  let m, e, b, d = run_entry name in
  checki "demand misses" misses m;
  checki "evictions" evictions e;
  checki "fill bypasses" bypasses b;
  Alcotest.(check (option (pair int int))) "duel (psel, flips)" duel d

let test_zoo_covers_registry () =
  Alcotest.(check (list string)) "every entry pinned" Registry.names (List.map fst zoo_golden);
  Alcotest.(check (list string)) "every entry's storage pinned" Registry.names
    (List.map fst zoo_storage_golden)

let test_zoo_storage () =
  let geometry = Config.default.Config.l1i in
  let sets = Cache.Geometry.sets geometry and ways = geometry.Cache.Geometry.ways in
  List.iter
    (fun (name, bits) ->
      checki name bits (Registry.factory name ~sets ~ways).Cache.Policy.storage_bits)
    zoo_storage_golden

let suites =
  [
    ( "regression.golden",
      [
        Alcotest.test_case "trace shape" `Quick test_trace_shape;
        Alcotest.test_case "lru/none" `Quick test_lru_none;
        Alcotest.test_case "lru/nlp" `Quick test_lru_nlp;
        Alcotest.test_case "lru/fdip" `Quick test_lru_fdip;
        Alcotest.test_case "oracle" `Quick test_oracle;
        Alcotest.test_case "stream length" `Quick test_stream_length;
      ] );
    ( "regression.zoo",
      Alcotest.test_case "covers the registry" `Quick test_zoo_covers_registry
      :: Alcotest.test_case "storage bits at Table I geometry" `Quick test_zoo_storage
      :: List.map
           (fun (name, golden) ->
             Alcotest.test_case (name ^ "/fdip") `Quick (test_zoo_entry name golden))
           zoo_golden );
  ]
