(* Tests for ripple.core: eviction windows, cue-block analysis (the
   Fig. 5 scenario), injection, and the end-to-end pipeline. *)

module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program
module Builder = Ripple_isa.Builder
module Access = Ripple_cache.Access
module Belady = Ripple_cache.Belady
module Cache = Ripple_cache
module Simulator = Ripple_cpu.Simulator
module Core = Ripple_core
module Eviction_window = Ripple_core.Eviction_window
module Cue_block = Ripple_core.Cue_block
module Injector = Ripple_core.Injector
module Pipeline = Ripple_core.Pipeline
module W = Ripple_workloads

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-9)

(* -------------------------- Eviction_window ------------------------- *)

let test_window_of_evictions () =
  let evictions =
    [|
      { Belady.at = 9; line = 100; set = 1; last_use = 4; next = Belady.Next_demand };
      { Belady.at = 20; line = 200; set = 2; last_use = 15; next = Belady.Next_prefetch };
    |]
  in
  let windows = Eviction_window.of_evictions evictions in
  checki "two windows" 2 (Array.length windows);
  checki "victim" 100 windows.(0).Eviction_window.victim;
  checki "start" 4 windows.(0).Eviction_window.start;
  checki "stop" 9 windows.(0).Eviction_window.stop;
  let filtered = Eviction_window.of_evictions ~demand_covered_only:true evictions in
  checki "prefetch-covered filtered" 1 (Array.length filtered);
  checki "survivor" 100 filtered.(0).Eviction_window.victim

let test_window_trace_coords () =
  let windows = [| { Eviction_window.victim = 7; start = 2; stop = 5 } |] in
  let stream_pos = [| 0; 0; 1; 1; 2; 2 |] in
  let mapped = Eviction_window.to_trace_coords windows ~stream_pos in
  checki "start mapped" 1 mapped.(0).Eviction_window.start;
  checki "stop mapped" 2 mapped.(0).Eviction_window.stop

let test_window_count_for () =
  let windows =
    [|
      { Eviction_window.victim = 1; start = 0; stop = 1 };
      { Eviction_window.victim = 1; start = 5; stop = 9 };
      { Eviction_window.victim = 2; start = 2; stop = 3 };
    |]
  in
  checki "two for line 1" 2 (Eviction_window.count_for windows ~line:1);
  checki "zero for line 9" 0 (Eviction_window.count_for windows ~line:9)

let test_window_index_membership () =
  let windows =
    [|
      { Eviction_window.victim = 1; start = 10; stop = 20 };
      { Eviction_window.victim = 1; start = 30; stop = 40 };
      { Eviction_window.victim = 2; start = 15; stop = 16 };
    |]
  in
  let index = Eviction_window.Index.create windows in
  (* Queries must be monotone per line. *)
  checkb "before first window" false (Eviction_window.Index.mem index ~line:1 ~at:5);
  checkb "start is inclusive" true (Eviction_window.Index.mem index ~line:1 ~at:10);
  checkb "inside" true (Eviction_window.Index.mem index ~line:1 ~at:15);
  checkb "stop inclusive" true (Eviction_window.Index.mem index ~line:1 ~at:20);
  checkb "gap" false (Eviction_window.Index.mem index ~line:1 ~at:25);
  checkb "second window" true (Eviction_window.Index.mem index ~line:1 ~at:35);
  checkb "after all" false (Eviction_window.Index.mem index ~line:1 ~at:50);
  checkb "other line" true (Eviction_window.Index.mem index ~line:2 ~at:16);
  checkb "unknown line" false (Eviction_window.Index.mem index ~line:99 ~at:16)

(* ----------------------------- Cue_block ---------------------------- *)

(* A hand-built Fig. 5-style scenario (see the paper's example): victim
   line A is evicted twice; candidate cue blocks B, C, D have execution
   counts 4, 2, 6, and window memberships 2, 2, 2, giving conditional
   probabilities 0.5, 1.0 and 1/3.  C must be selected for both
   windows. *)
let fig5_scenario () =
  let d ~line ~block = Access.demand ~line ~block in
  let stream =
    [|
      d ~line:50 ~block:9 (* 0 *);
      d ~line:100 ~block:5 (* 1: A's last use *);
      d ~line:60 ~block:1 (* 2: B *);
      d ~line:61 ~block:2 (* 3: C *);
      d ~line:62 ~block:3 (* 4: D, eviction trigger *);
      d ~line:60 ~block:1 (* 5: B outside windows *);
      d ~line:62 ~block:3 (* 6 *);
      d ~line:62 ~block:3 (* 7 *);
      d ~line:100 ~block:5 (* 8: A's last use again *);
      d ~line:60 ~block:1 (* 9: B *);
      d ~line:61 ~block:2 (* 10: C *);
      d ~line:62 ~block:3 (* 11: D, eviction trigger *);
      d ~line:60 ~block:1 (* 12 *);
      d ~line:62 ~block:3 (* 13 *);
      d ~line:62 ~block:3 (* 14 *);
    |]
  in
  let windows =
    [|
      { Eviction_window.victim = 100; start = 1; stop = 4 };
      { Eviction_window.victim = 100; start = 8; stop = 11 };
    |]
  in
  let exec_counts = Array.make 10 0 in
  Array.iter (fun (a : Access.t) -> exec_counts.(a.Access.block) <- exec_counts.(a.Access.block) + 1) stream;
  (Ripple_cache.Access_stream.of_array stream, windows, exec_counts)

let test_cue_selects_best_probability () =
  let stream, windows, exec_counts = fig5_scenario () in
  match Cue_block.analyze ~min_support:2 ~stream ~windows ~exec_counts ~threshold:0.6 () with
  | [ d ] ->
    checki "cue is C" 2 d.Cue_block.cue_block;
    checki "victim is A" 100 d.Cue_block.victim;
    checkf "probability 1.0" 1.0 d.Cue_block.probability;
    checki "covers both windows" 2 d.Cue_block.windows
  | ds -> Alcotest.failf "expected exactly one decision, got %d" (List.length ds)

let test_cue_threshold_filters () =
  let stream, windows, exec_counts = fig5_scenario () in
  checki "nothing above probability 1" 0
    (List.length (Cue_block.analyze ~min_support:1 ~stream ~windows ~exec_counts ~threshold:1.01 ()))

let test_cue_min_support_filters () =
  let stream, windows, exec_counts = fig5_scenario () in
  checki "support 3 kills a 2-window pair" 0
    (List.length (Cue_block.analyze ~min_support:3 ~stream ~windows ~exec_counts ~threshold:0.5 ()))

let test_cue_conditional_probability_values () =
  (* Drop the winner C from consideration by raising the threshold to
     exclude C's rivals but catch B at exactly 0.5. *)
  let stream, windows, exec_counts = fig5_scenario () in
  match Cue_block.analyze ~min_support:2 ~stream ~windows ~exec_counts ~threshold:0.5 () with
  | [ d ] -> checkf "C still the per-window best" 1.0 d.Cue_block.probability
  | _ -> Alcotest.fail "one decision expected"

let test_cue_empty_inputs () =
  checki "no windows, no decisions" 0
    (List.length
       (Cue_block.analyze ~stream:Ripple_cache.Access_stream.empty ~windows:[||] ~exec_counts:[| 0 |] ~threshold:0.5 ()))

(* ------------------------------ Injector ---------------------------- *)

let program_for_injection () =
  let b = Builder.create () in
  let blocks = Array.init 4 (fun _ -> Builder.block b ~bytes:32 ~term:Basic_block.Halt ()) in
  Builder.set_term b blocks.(0) (Basic_block.Fallthrough blocks.(1));
  Builder.set_term b blocks.(1) (Basic_block.Fallthrough blocks.(2));
  Builder.set_term b blocks.(2) (Basic_block.Fallthrough blocks.(3));
  (Builder.finish b ~entry:blocks.(0), blocks)

let decision ~cue ~victim ~p = { Cue_block.cue_block = cue; victim; probability = p; windows = 2 }

let test_injector_basic () =
  let program, blocks = program_for_injection () in
  let decisions = [ decision ~cue:blocks.(1) ~victim:77 ~p:0.9 ] in
  let instrumented, _, stats = Injector.inject ~program ~decisions () in
  checki "one injected" 1 stats.Injector.injected;
  checki "one block touched" 1 stats.Injector.blocks_touched;
  let hints = (Program.block instrumented blocks.(1)).Basic_block.hints in
  checki "hint present" 1 (Array.length hints);
  checkb "invalidate hint" true (hints.(0) = Basic_block.Invalidate 77)

let test_injector_demote_mode () =
  let program, blocks = program_for_injection () in
  let decisions = [ decision ~cue:blocks.(0) ~victim:5 ~p:0.9 ] in
  let instrumented, _, _ = Injector.inject ~mode:Injector.Demote ~program ~decisions () in
  let hints = (Program.block instrumented blocks.(0)).Basic_block.hints in
  checkb "demote hint" true (hints.(0) = Basic_block.Demote 5)

let test_injector_cap () =
  let program, blocks = program_for_injection () in
  let decisions =
    List.init 5 (fun i -> decision ~cue:blocks.(2) ~victim:(100 + i) ~p:(0.5 +. (0.1 *. Float.of_int i)))
  in
  let instrumented, _, stats = Injector.inject ~max_hints_per_block:2 ~program ~decisions () in
  checki "capped to 2" 2 stats.Injector.injected;
  checki "dropped 3" 3 stats.Injector.skipped_cap;
  let hints = (Program.block instrumented blocks.(2)).Basic_block.hints in
  checki "two hints" 2 (Array.length hints);
  (* Highest-probability victims (104, 103) kept. *)
  let lines = Array.to_list (Array.map Basic_block.hint_line hints) in
  checkb "best kept" true (List.mem 104 lines && List.mem 103 lines)

let test_injector_skips_jit () =
  let b = Builder.create () in
  let plain = Builder.block b ~bytes:32 ~term:Basic_block.Halt () in
  let jit = Builder.block b ~jit:true ~bytes:32 ~term:Basic_block.Halt () in
  Builder.set_term b plain (Basic_block.Fallthrough jit);
  let program = Builder.finish b ~entry:plain in
  let decisions = [ decision ~cue:jit ~victim:9 ~p:0.9; decision ~cue:plain ~victim:8 ~p:0.9 ] in
  let _, _, stats = Injector.inject ~program ~decisions () in
  checki "jit decision skipped" 1 stats.Injector.skipped_jit;
  checki "plain injected" 1 stats.Injector.injected;
  let _, _, stats_keep = Injector.inject ~skip_jit:false ~program ~decisions () in
  checki "jit kept when allowed" 2 stats_keep.Injector.injected

(* ------------------------------ Pipeline ---------------------------- *)

(* A small, deterministic, thrashing workload: the cleanest end-to-end
   demonstration that Ripple reduces misses. *)
let mini_verilator =
  {
    W.Apps.verilator with
    W.App_model.name = "mini-verilator";
    seed = 17;
    n_functions = 90;
    hot_functions = 30;
    handler_blocks = 60;
    blocks_per_function = 12;
  }

let mini_setup () =
  let w = W.Cfg_gen.generate mini_verilator in
  let program = w.W.Cfg_gen.program in
  let train = W.Executor.run w ~input:W.Executor.train ~n_instrs:400_000 in
  let eval = W.Executor.run w ~input:W.Executor.eval_inputs.(0) ~n_instrs:400_000 in
  (program, train, eval)

(* Shared shape for the pipeline tests: one [Pipeline.run] call under
   [No_prefetch], optionally with an evaluation request attached. *)
let run_mini ?(options = Pipeline.Options.default) ?eval program train =
  let eval =
    Option.map
      (fun (warmup, trace, policy) -> Pipeline.Eval.v ~warmup ~trace ~policy ())
      eval
  in
  Pipeline.run
    { options with prefetch = Pipeline.No_prefetch; eval }
    ~source:program (Pipeline.Trace train)

let test_pipeline_instrument_produces_hints () =
  let program, train, _ = mini_setup () in
  let oc = run_mini program train in
  let instrumented = oc.Pipeline.program in
  let analysis = oc.Pipeline.analysis in
  checkb "windows found" true (analysis.Pipeline.n_windows > 0);
  checkb "decisions made" true (analysis.Pipeline.n_decisions > 0);
  checkb "hints injected" true (Program.static_hints instrumented > 0);
  checki "injected = decisions - skips" analysis.Pipeline.injection.Injector.injected
    (Program.static_hints instrumented)

let test_pipeline_ripple_reduces_misses () =
  let program, train, eval = mini_setup () in
  let warmup = Array.length eval / 2 in
  let lru =
    Simulator.run ~warmup ~program ~trace:eval ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let oc = run_mini program train ~eval:(warmup, eval, Cache.Lru.make) in
  let ev = Option.get oc.Pipeline.evaluation in
  checkb "fewer misses than LRU" true
    (ev.Pipeline.result.Simulator.demand_misses < lru.Simulator.demand_misses);
  checkb "coverage positive" true (ev.Pipeline.coverage > 0.2);
  checkb "accuracy high on deterministic code" true (ev.Pipeline.accuracy > 0.8);
  checkb "hints executed" true (ev.Pipeline.hint_execs > 0);
  checkb "static overhead sane" true
    (ev.Pipeline.static_overhead > 0.0 && ev.Pipeline.static_overhead < 0.15);
  checkb "dynamic overhead sane" true
    (ev.Pipeline.dynamic_overhead > 0.0 && ev.Pipeline.dynamic_overhead < 0.15)

let test_pipeline_ripple_random_works () =
  let program, train, eval = mini_setup () in
  let warmup = Array.length eval / 2 in
  let random_base =
    Simulator.run ~warmup ~program ~trace:eval ~policy:(Cache.Random_policy.make ~seed:8)
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let oc = run_mini program train ~eval:(warmup, eval, Cache.Random_policy.make ~seed:8) in
  let ev = Option.get oc.Pipeline.evaluation in
  checkb "ripple-random beats plain random" true
    (ev.Pipeline.result.Simulator.demand_misses < random_base.Simulator.demand_misses)

let test_pipeline_demote_mode_runs () =
  let program, train, eval = mini_setup () in
  let warmup = Array.length eval / 2 in
  let lru =
    Simulator.run ~warmup ~program ~trace:eval ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let oc =
    run_mini program train
      ~options:{ Pipeline.Options.default with mode = Injector.Demote }
      ~eval:(warmup, eval, Cache.Lru.make)
  in
  let ev = Option.get oc.Pipeline.evaluation in
  checkb "demote also reduces misses" true
    (ev.Pipeline.result.Simulator.demand_misses < lru.Simulator.demand_misses)

let test_pipeline_threshold_monotone_decisions () =
  let program, train, _ = mini_setup () in
  let count threshold =
    let oc = run_mini program train ~options:{ Pipeline.Options.default with threshold } in
    oc.Pipeline.analysis.Pipeline.n_decisions
  in
  checkb "higher threshold, fewer decisions" true (count 0.9 <= count 0.3)

let test_pipeline_prefetch_helpers () =
  check Alcotest.string "name none" "none" (Pipeline.prefetch_name Pipeline.No_prefetch);
  check Alcotest.string "name nlp" "nlp" (Pipeline.prefetch_name Pipeline.Nlp);
  check Alcotest.string "name fdip" "fdip" (Pipeline.prefetch_name Pipeline.Fdip);
  checkb "mode none" true (Pipeline.belady_mode_of Pipeline.No_prefetch = Belady.Min);
  checkb "mode fdip" true (Pipeline.belady_mode_of Pipeline.Fdip = Belady.Demand_min)

let suites =
  [
    ( "core.eviction_window",
      [
        Alcotest.test_case "of_evictions" `Quick test_window_of_evictions;
        Alcotest.test_case "trace coords" `Quick test_window_trace_coords;
        Alcotest.test_case "count_for" `Quick test_window_count_for;
        Alcotest.test_case "index membership" `Quick test_window_index_membership;
      ] );
    ( "core.cue_block",
      [
        Alcotest.test_case "selects best probability" `Quick test_cue_selects_best_probability;
        Alcotest.test_case "threshold filters" `Quick test_cue_threshold_filters;
        Alcotest.test_case "min support filters" `Quick test_cue_min_support_filters;
        Alcotest.test_case "probability values" `Quick test_cue_conditional_probability_values;
        Alcotest.test_case "empty inputs" `Quick test_cue_empty_inputs;
      ] );
    ( "core.injector",
      [
        Alcotest.test_case "basic" `Quick test_injector_basic;
        Alcotest.test_case "demote mode" `Quick test_injector_demote_mode;
        Alcotest.test_case "cap" `Quick test_injector_cap;
        Alcotest.test_case "skips jit" `Quick test_injector_skips_jit;
      ] );
    ( "core.pipeline",
      [
        Alcotest.test_case "instrument produces hints" `Quick test_pipeline_instrument_produces_hints;
        Alcotest.test_case "ripple reduces misses" `Quick test_pipeline_ripple_reduces_misses;
        Alcotest.test_case "ripple-random works" `Quick test_pipeline_ripple_random_works;
        Alcotest.test_case "demote mode runs" `Quick test_pipeline_demote_mode_runs;
        Alcotest.test_case "threshold monotone" `Quick test_pipeline_threshold_monotone_decisions;
        Alcotest.test_case "helpers" `Quick test_pipeline_prefetch_helpers;
      ] );
  ]
