(* Tests for the beyond-the-matrix extensions: SHiP replacement, the
   RDIP prefetcher, and LBR-sampled profiling. *)

module Basic_block = Ripple_isa.Basic_block
module Builder = Ripple_isa.Builder
module Program = Ripple_isa.Program
module Access = Ripple_cache.Access
module Geometry = Ripple_cache.Geometry
module Cache = Ripple_cache.Cache
module Stats = Ripple_cache.Stats
module Rrip = Ripple_cache.Rrip
module Lru = Ripple_cache.Lru
module Rdip = Ripple_prefetch.Rdip
module Prefetcher = Ripple_prefetch.Prefetcher
module Lbr = Ripple_trace.Lbr
module Simulator = Ripple_cpu.Simulator
module Pipeline = Ripple_core.Pipeline
module W = Ripple_workloads

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let tiny = Geometry.v ~size_bytes:(2 * 2 * 64) ~ways:2
let demand line = Access.demand ~line ~block:line

(* ------------------------------- SHiP ------------------------------- *)

let test_ship_basic_operation () =
  let c = Cache.create ~geometry:tiny ~policy:Rrip.ship () in
  ignore (Cache.access c (demand 0));
  checkb "hit after fill" true (Cache.access c (demand 0) = Cache.Hit);
  ignore (Cache.access c (demand 2));
  ignore (Cache.access c (demand 4));
  checki "set stays full" 2 (Cache.occupancy c ~set:0)

let test_ship_learns_streaming_signature () =
  (* Line 0 is hot; a stream of one-shot lines flows past it.  After the
     predictor learns the streaming signatures are never reused, the hot
     line stops being evicted. *)
  let c = Cache.create ~geometry:tiny ~policy:Rrip.ship () in
  let misses_on_0 = ref 0 in
  for i = 1 to 600 do
    if Cache.access c (demand 0) = Cache.Miss then incr misses_on_0;
    ignore (Cache.access c (demand (2 * i)))
  done;
  (* LRU would miss on 0 every other round (2-way set shared with the
     stream); SHiP must do clearly better in the steady state. *)
  checkb "hot line mostly resident" true (!misses_on_0 < 150)

let test_ship_storage_positive () =
  let p = Rrip.ship ~sets:64 ~ways:8 in
  checkb "accounts metadata" true (p.Ripple_cache.Policy.storage_bits > 0)

(* ------------------------------- RDIP ------------------------------- *)

(* A program whose function f misses the same lines on every call: RDIP
   should learn the (call-site -> miss set) mapping. *)
let rdip_program () =
  let b = Builder.create () in
  let main = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  let f0 = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  let f1 = Builder.block b ~bytes:64 ~term:Basic_block.Return () in
  Builder.set_term b main (Basic_block.Call { callee = f0; return_to = main });
  Builder.set_term b f0 (Basic_block.Fallthrough f1);
  (Builder.finish b ~entry:main, main, f0, f1)

let test_rdip_learns_callsite_misses () =
  let program, main, f0, _ = rdip_program () in
  let pf = Rdip.create ~program () in
  let f0_line = List.hd (Basic_block.lines (Program.block program f0)) in
  (* First call: record misses under main's signature. *)
  let issued1 = pf.Prefetcher.on_block (Program.block program main) in
  checki "nothing known yet" 0 (List.length issued1);
  (Option.get pf.Prefetcher.on_miss) f0_line;
  (* Return, then call again: the signature recurs and f0's line is
     prefetched. *)
  ignore (pf.Prefetcher.on_block (Program.block program f0));
  ignore (pf.Prefetcher.on_block (Program.block program (Program.n_blocks program - 1)));
  let issued2 = pf.Prefetcher.on_block (Program.block program main) in
  checkb "prefetches the recorded miss" true
    (List.exists (fun a -> Access.packed_line a = f0_line) issued2)

let test_rdip_end_to_end_helps () =
  (* On a call-heavy workload RDIP must remove some misses vs no
     prefetching. *)
  let w = W.Cfg_gen.generate { W.Apps.finagle_http with W.App_model.seed = 21 } in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:300_000 in
  let program = w.W.Cfg_gen.program in
  let none =
    Simulator.run ~program ~trace ~policy:Lru.make ~prefetcher:Simulator.prefetcher_none ()
  in
  let rdip =
    Simulator.run ~program ~trace ~policy:Lru.make
      ~prefetcher:(fun program -> Rdip.create ~program ()) ()
  in
  checkb "rdip cuts misses" true (rdip.Simulator.demand_misses < none.Simulator.demand_misses)

let test_rdip_storage_accounting () =
  checki "entry cost" (2048 * (16 + (6 * 26)))
    (Rdip.storage_bits ~table_entries:2048 ~lines_per_signature:6)

(* -------------------------------- LBR ------------------------------- *)

let lbr_setup () =
  let w = W.Cfg_gen.generate { W.Apps.kafka with W.App_model.seed = 33 } in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:120_000 in
  (w.W.Cfg_gen.program, trace)

let test_lbr_sampling_period () =
  let program, trace = lbr_setup () in
  let samples = Lbr.capture program ~trace ~period:500 ~depth:8 in
  checki "one sample per period" (Array.length trace / 500) (Array.length samples);
  Array.iter
    (fun (s : Lbr.sample) ->
      checkb "path nonempty" true (Array.length s.Lbr.path > 0);
      checkb "path ends at the interrupt" true
        (s.Lbr.path.(Array.length s.Lbr.path - 1) = trace.(s.Lbr.at)))
    samples

let test_lbr_paths_are_subpaths () =
  let program, trace = lbr_setup () in
  let samples = Lbr.capture program ~trace ~period:700 ~depth:4 in
  Array.iter
    (fun (s : Lbr.sample) ->
      let n = Array.length s.Lbr.path in
      for i = 0 to n - 1 do
        checki "sample mirrors the trace" trace.(s.Lbr.at - n + 1 + i) s.Lbr.path.(i)
      done)
    samples

let test_lbr_depth_bounds_branches () =
  let program, trace = lbr_setup () in
  let depth = 5 in
  let samples = Lbr.capture program ~trace ~period:900 ~depth in
  Array.iter
    (fun (s : Lbr.sample) ->
      let branches = ref 0 in
      for i = 0 to Array.length s.Lbr.path - 2 do
        let prev = s.Lbr.path.(i) and next = s.Lbr.path.(i + 1) in
        (* Re-derive "taken transfer" from the program. *)
        let taken =
          match (Program.block program prev).Basic_block.term with
          | Basic_block.Fallthrough _ -> false
          | Basic_block.Cond { taken; _ } -> next = taken
          | _ -> true
        in
        if taken then incr branches
      done;
      checkb "at most depth taken branches" true (!branches <= depth))
    samples

let test_lbr_coverage_fraction () =
  let program, trace = lbr_setup () in
  let sparse = Lbr.capture program ~trace ~period:2_000 ~depth:8 in
  let dense = Lbr.capture program ~trace ~period:200 ~depth:8 in
  let f_sparse = Lbr.coverage_fraction sparse ~trace_length:(Array.length trace) in
  let f_dense = Lbr.coverage_fraction dense ~trace_length:(Array.length trace) in
  checkb "denser sampling sees more" true (f_dense > f_sparse);
  checkb "fractions in (0,1]" true (f_sparse > 0.0 && f_dense <= 1.0)

let test_lbr_profile_feeds_pipeline () =
  let program, trace = lbr_setup () in
  let samples = Lbr.capture program ~trace ~period:150 ~depth:16 in
  let stitched = Lbr.stitched_trace samples in
  let oc =
    Pipeline.run
      {
        Pipeline.Options.default with
        pt_roundtrip = false;
        prefetch = Pipeline.No_prefetch;
      }
      ~source:program (Pipeline.Trace stitched)
  in
  checkb "analysis runs on stitched samples" true (oc.Pipeline.analysis.Pipeline.n_windows > 0);
  checkb "program valid" true (Program.static_hints oc.Pipeline.program >= 0)

let suites =
  [
    ( "extensions.ship",
      [
        Alcotest.test_case "basic operation" `Quick test_ship_basic_operation;
        Alcotest.test_case "learns streaming" `Quick test_ship_learns_streaming_signature;
        Alcotest.test_case "storage" `Quick test_ship_storage_positive;
      ] );
    ( "extensions.rdip",
      [
        Alcotest.test_case "learns callsite misses" `Quick test_rdip_learns_callsite_misses;
        Alcotest.test_case "end to end" `Quick test_rdip_end_to_end_helps;
        Alcotest.test_case "storage" `Quick test_rdip_storage_accounting;
      ] );
    ( "extensions.lbr",
      [
        Alcotest.test_case "sampling period" `Quick test_lbr_sampling_period;
        Alcotest.test_case "paths are subpaths" `Quick test_lbr_paths_are_subpaths;
        Alcotest.test_case "depth bounds" `Quick test_lbr_depth_bounds_branches;
        Alcotest.test_case "coverage fraction" `Quick test_lbr_coverage_fraction;
        Alcotest.test_case "feeds pipeline" `Quick test_lbr_profile_feeds_pipeline;
      ] );
  ]

(* --------------------------- pipeline fuzz -------------------------- *)

(* Whole-pipeline invariant fuzz: for arbitrary workload seeds and
   thresholds, instrument+evaluate must not raise and every reported
   metric must be in range. *)
let prop_pipeline_invariants =
  QCheck.Test.make ~count:6 ~name:"pipeline metrics stay in range across seeds"
    QCheck.(pair (int_range 1 1000) (int_range 30 90))
    (fun (seed, threshold_pct) ->
      let model =
        {
          W.Apps.kafka with
          W.App_model.name = "fuzz";
          seed;
          n_functions = 150;
          hot_functions = 25;
          handler_blocks = 60;
        }
      in
      let w = W.Cfg_gen.generate model in
      let program = w.W.Cfg_gen.program in
      let profile = W.Executor.run w ~input:W.Executor.train ~n_instrs:60_000 in
      let eval = W.Executor.run w ~input:W.Executor.eval_inputs.(1) ~n_instrs:60_000 in
      let oc =
        Pipeline.run
          {
            Pipeline.Options.default with
            threshold = Float.of_int threshold_pct /. 100.0;
            prefetch = Pipeline.Nlp;
            eval = Some (Pipeline.Eval.v ~trace:eval ~policy:Lru.make ());
          }
          ~source:program (Pipeline.Trace profile)
      in
      let analysis = oc.Pipeline.analysis in
      let ev = Option.get oc.Pipeline.evaluation in
      analysis.Pipeline.n_decisions >= 0
      && ev.Pipeline.coverage >= 0.0
      && ev.Pipeline.coverage <= 1.0
      && ev.Pipeline.accuracy >= 0.0
      && ev.Pipeline.accuracy <= 1.0
      && ev.Pipeline.static_overhead >= 0.0
      && ev.Pipeline.dynamic_overhead >= 0.0
      && ev.Pipeline.result.Simulator.ipc > 0.0)

let suites =
  suites
  @ [
      ( "extensions.fuzz",
        [ QCheck_alcotest.to_alcotest prop_pipeline_invariants ] );
    ]
