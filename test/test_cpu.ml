(* Tests for ripple.cpu: configuration, hierarchy and the trace-driven
   simulator. *)

module Basic_block = Ripple_isa.Basic_block
module Builder = Ripple_isa.Builder
module Program = Ripple_isa.Program
module Cache = Ripple_cache
module Config = Ripple_cpu.Config
module Hierarchy = Ripple_cpu.Hierarchy
module Simulator = Ripple_cpu.Simulator
module W = Ripple_workloads

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-6)

let test_config_defaults () =
  let c = Config.default in
  checki "l1 latency" 3 c.Config.l1_latency;
  checki "l2 latency" 12 c.Config.l2_latency;
  checki "l3 latency" 36 c.Config.l3_latency;
  checki "memory latency" 260 c.Config.memory_latency;
  checki "cores" 20 c.Config.cores_per_socket;
  checki "l1i sets" 64 (Cache.Geometry.sets c.Config.l1i)

let test_config_penalties () =
  let c = Config.default in
  checki "l2 penalty" (12 - 3 + c.Config.frontend_bubble) (Config.miss_penalty c ~hit_level:`L2);
  checki "memory penalty" (260 - 3 + c.Config.frontend_bubble)
    (Config.miss_penalty c ~hit_level:`Memory)

let test_config_table_renders () =
  let s = Format.asprintf "%a" Config.pp_table Config.default in
  checkb "mentions 32 KiB" true
    (let needle = "32 KiB" in
     let nl = String.length needle and hl = String.length s in
     let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
     go 0)

let test_hierarchy_levels () =
  let h = Hierarchy.create Config.default in
  checkb "first fetch from memory" true (Hierarchy.fetch h 1000 = Hierarchy.Memory);
  checkb "second fetch hits l2" true (Hierarchy.fetch h 1000 = Hierarchy.L2);
  checki "penalty l2" (Config.miss_penalty Config.default ~hit_level:`L2)
    (Hierarchy.penalty Config.default Hierarchy.L2)

let test_hierarchy_l3_capture () =
  (* Touch enough distinct lines to overflow L2 (1 MiB = 16384 lines) but
     not L3; re-touching them should then hit L3. *)
  let h = Hierarchy.create Config.default in
  let n = 20_000 in
  for line = 0 to n - 1 do
    ignore (Hierarchy.fetch h line)
  done;
  (* Line 0 was evicted from L2 (LRU) but lives in L3. *)
  checkb "old line in l3" true (Hierarchy.fetch h 0 = Hierarchy.L3)

(* A trivial two-block program for controlled timing checks. *)
let tiny_program () =
  let b = Builder.create () in
  let first = Builder.block b ~bytes:64 ~n_instrs:16 ~term:Basic_block.Halt () in
  let second = Builder.block b ~bytes:64 ~n_instrs:16 ~term:Basic_block.Halt () in
  Builder.set_term b first (Basic_block.Fallthrough second);
  Builder.set_term b second (Basic_block.Jump first);
  Builder.finish b ~entry:first

let test_ideal_cache_cycles () =
  let program = tiny_program () in
  let trace = Array.init 100 (fun i -> i mod 2) in
  let r = Simulator.ideal_cache ~program ~trace () in
  checki "instructions" 1600 r.Simulator.instructions;
  checkf "cycles = cpi * instrs" (Config.default.Config.cpi_base *. 1600.0) r.Simulator.cycles;
  checki "no misses" 0 r.Simulator.demand_misses

let test_run_counts_misses_and_cycles () =
  let program = tiny_program () in
  let trace = Array.init 100 (fun i -> i mod 2) in
  let r =
    Simulator.run ~program ~trace ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  (* Two lines, both cold-miss once then always hit. *)
  checki "two misses" 2 r.Simulator.demand_misses;
  checki "served by memory" 2 r.Simulator.served_memory;
  checkb "slower than ideal" true
    (r.Simulator.cycles > (Simulator.ideal_cache ~program ~trace ()).Simulator.cycles);
  checkb "ipc sane" true (r.Simulator.ipc > 0.0 && r.Simulator.ipc < 2.0)

let test_run_warmup_excludes () =
  let program = tiny_program () in
  let trace = Array.init 100 (fun i -> i mod 2) in
  let r =
    Simulator.run ~warmup:50 ~program ~trace ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checki "half the instructions" 800 r.Simulator.instructions;
  checki "cold misses fell in warmup" 0 r.Simulator.demand_misses

let test_run_executes_hints () =
  let program = tiny_program () in
  let line0 = List.hd (Basic_block.lines (Program.block program 0)) in
  let hints = Array.make (Program.n_blocks program) [] in
  hints.(1) <- [ Basic_block.Invalidate line0 ];
  (* Block 1 invalidates block 0's line each time: every visit to block 0
     misses again. *)
  let instrumented, _ = Program.with_hints program ~hints in
  checki "hint targets block 0's line" line0
    (Basic_block.hint_line (Program.block instrumented 1).Basic_block.hints.(0));
  let trace = Array.init 100 (fun i -> i mod 2) in
  let fired = ref 0 in
  let resident_count = ref 0 in
  let r =
    Simulator.run
      ~on_hint:(fun ~at:_ _ ~resident -> incr fired; if resident then incr resident_count)
      ~program:instrumented ~trace ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checki "hint fired every visit" 50 !fired;
  checki "hint always found the line" 50 !resident_count;
  checki "hint instructions counted" 50 r.Simulator.hint_instructions;
  (* 50 misses on line0 (re-fetched after each invalidation) + 1 cold on
     line1. *)
  checki "misses from invalidation" 51 r.Simulator.demand_misses

let test_record_stream_demand_content () =
  let program = tiny_program () in
  let trace = [| 0; 1; 0 |] in
  let stream, pos =
    Simulator.record_stream_indexed ~program ~trace ~prefetcher:Simulator.prefetcher_none ()
  in
  checki "three accesses" 3 (Cache.Access_stream.length stream);
  check (Alcotest.array Alcotest.int) "trace positions" [| 0; 1; 2 |] pos;
  checkb "all demand" true
    (Array.for_all Cache.Access.is_demand (Cache.Access_stream.to_array stream))

let test_record_stream_includes_prefetches () =
  let program = tiny_program () in
  let trace = Array.init 20 (fun i -> i mod 2) in
  let stream =
    Simulator.record_stream ~program ~trace
      ~prefetcher:(Simulator.prefetcher_nlp ?config:None) ()
  in
  checkb "has prefetch entries" true
    (Array.exists Cache.Access.is_prefetch (Cache.Access_stream.to_array stream))

let test_oracle_not_worse_than_lru () =
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:200_000 in
  let program = w.W.Cfg_gen.program in
  let lru =
    Simulator.run ~program ~trace ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let oracle =
    Simulator.oracle ~mode:Cache.Belady.Min ~program ~trace
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checkb "oracle <= lru misses" true (oracle.Simulator.demand_misses <= lru.Simulator.demand_misses);
  checkb "oracle >= cold misses" true
    (oracle.Simulator.demand_misses >= lru.Simulator.l1i.Cache.Stats.demand_misses_cold)

let test_oracle_warmup_consistent () =
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:200_000 in
  let program = w.W.Cfg_gen.program in
  let warmup = Array.length trace / 2 in
  let full =
    Simulator.oracle ~mode:Cache.Belady.Min ~program ~trace
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let steady =
    Simulator.oracle ~warmup ~mode:Cache.Belady.Min ~program ~trace
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checkb "steady-state misses below full-trace misses" true
    (steady.Simulator.demand_misses < full.Simulator.demand_misses);
  checkb "steady-state instructions below total" true
    (steady.Simulator.instructions < full.Simulator.instructions)

(* The trace representation is invisible: a run over an mmap-backed
   Int_stream equals the run over the int array it came from. *)
let test_run_trace_stream_equivalence () =
  let module Int_stream = Ripple_util.Int_stream in
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:60_000 in
  let program = w.W.Cfg_gen.program in
  let warmup = Array.length trace / 2 in
  let policy = Cache.Lru.make and prefetcher = Simulator.prefetcher_fdip in
  let from_blocks = Simulator.run ~warmup ~program ~trace ~policy ~prefetcher () in
  let stream = Int_stream.of_array ~backing:Int_stream.Spill trace in
  let from_stream =
    fst
      (Simulator.run_trace ~warmup ~program ~trace:(Simulator.Trace.Stream stream) ~policy
         ~prefetcher ())
  in
  Int_stream.close stream;
  checkb "stream trace equals block trace" true (from_stream = from_blocks)

(* -------------------- front end / back end split --------------------- *)

module Pipeline = Ripple_core.Pipeline
module Registry = Ripple_cache.Registry
module Obs = Ripple_obs
module Json = Ripple_util.Json

(* A thrashing model small enough to instrument in a property case. *)
let small_model seed =
  {
    W.Apps.verilator with
    W.App_model.name = "small";
    seed;
    n_functions = 90;
    hot_functions = 30;
    handler_blocks = 60;
    blocks_per_function = 12;
  }

let prefetches = [| Pipeline.No_prefetch; Pipeline.Nlp; Pipeline.Fdip |]

(* One run, observed: its result, its metric snapshot (IPC/MPKI series
   included) and every [on_hint] call, as comparable strings. *)
let observed run =
  let obs = Obs.Run.create () in
  let hints = ref [] in
  let on_hint ~at hint ~resident = hints := (at, hint, resident) :: !hints in
  let result = run ~obs ~on_hint in
  ( Json.to_string (Simulator.result_to_json result),
    Json.to_string (Obs.Snapshot.to_json (Obs.Run.snapshot obs)),
    List.rev !hints )

let prop_split_matches_reference =
  QCheck.Test.make ~count:20 ~name:"run_trace and replay of a recording equal the reference loop"
    QCheck.(
      quad (int_range 0 1000)
        (int_range 0 (List.length Registry.names - 1))
        (int_range 0 2) (int_range 0 3))
    (fun (seed, policy_index, prefetch_index, warmup_quarter) ->
      let w = W.Cfg_gen.generate (small_model seed) in
      let source = w.W.Cfg_gen.program in
      let train = W.Executor.run w ~input:W.Executor.train ~n_instrs:60_000 in
      let eval = W.Executor.run w ~input:W.Executor.eval_inputs.(seed mod 4) ~n_instrs:60_000 in
      let prefetch = prefetches.(prefetch_index) in
      let mode = if seed mod 3 = 0 then Ripple_core.Injector.Demote else Ripple_core.Injector.Invalidate in
      (* A low threshold and support inject hundreds of hints. *)
      let program =
        (Pipeline.run
           {
             Pipeline.Options.default with
             prefetch;
             mode;
             pt_roundtrip = false;
             threshold = 0.2;
             min_support = 1;
           }
           ~source (Pipeline.Trace train))
          .Pipeline.program
      in
      let name = List.nth Registry.names policy_index in
      let policy = Registry.factory ~seed name in
      let prefetcher = Pipeline.prefetcher_of prefetch in
      let trace = Simulator.Trace.Blocks eval in
      let warmup = warmup_quarter * Array.length eval / 4 in
      let reference =
        observed (fun ~obs ~on_hint ->
            Simulator_ref.run_trace ~warmup ~obs ~on_hint ~program ~trace ~policy ~prefetcher ())
      in
      let streamed =
        observed (fun ~obs ~on_hint ->
            fst (Simulator.run_trace ~warmup ~obs ~on_hint ~program ~trace ~policy ~prefetcher ()))
      in
      (* Recorded on the uninstrumented binary, as the sweep runner's
         Ripple cells share it. *)
      let recording = Simulator.record ~program:source ~trace ~prefetcher () in
      let replayed =
        observed (fun ~obs ~on_hint ->
            Simulator.replay ~warmup ~obs ~on_hint ~program ~trace ~policy recording)
      in
      Program.static_hints program > 0 && streamed = reference && replayed = reference)

(* RDIP learns from the front end's LRU reference L1I instead of the
   evaluated one: under LRU on an uninstrumented binary the two are the
   same cache, so nothing changes. *)
let test_rdip_lru_matches_reference () =
  let w = W.Cfg_gen.generate W.Apps.finagle_http in
  let program = w.W.Cfg_gen.program in
  let eval = W.Executor.run w ~input:W.Executor.train ~n_instrs:120_000 in
  let trace = Simulator.Trace.Blocks eval in
  let warmup = Array.length eval / 2 in
  let prefetcher program = Ripple_prefetch.Rdip.create ~program () in
  let run f = observed (fun ~obs ~on_hint -> f ~obs ~on_hint) in
  let reference =
    run (fun ~obs ~on_hint ->
        Simulator_ref.run_trace ~warmup ~obs ~on_hint ~program ~trace ~policy:Cache.Lru.make
          ~prefetcher ())
  in
  let streamed =
    run (fun ~obs ~on_hint ->
        fst
          (Simulator.run_trace ~warmup ~obs ~on_hint ~program ~trace ~policy:Cache.Lru.make
             ~prefetcher ()))
  in
  let recording = Simulator.record ~program ~trace ~prefetcher () in
  let replayed =
    run (fun ~obs ~on_hint ->
        Simulator.replay ~warmup ~obs ~on_hint ~program ~trace ~policy:Cache.Lru.make recording)
  in
  checkb "streamed = reference" true (streamed = reference);
  checkb "replayed = reference" true (replayed = reference)

let recording_contents (r : Simulator.Recording.t) =
  ( Ripple_util.Int_stream.to_array (Cache.Access_stream.raw (Simulator.Recording.stream r)),
    Array.init (Simulator.Recording.blocks r + 1) (fun at ->
        Simulator.Recording.count_from r ~warmup:at) )

(* Sharing one recording between a sweep's policy, oracle and Ripple
   cells rests on this: hints never reach the front end, so every app's
   instrumented binary records exactly the original's access sequence,
   under every prefetcher. *)
let test_instrumented_recording_equals_original () =
  let hinted = ref 0 in
  List.iter
    (fun (model : W.App_model.t) ->
      let w = W.Cfg_gen.generate model in
      let source = w.W.Cfg_gen.program in
      let train = W.Executor.run w ~input:W.Executor.train ~n_instrs:150_000 in
      let eval = W.Executor.run w ~input:W.Executor.eval_inputs.(0) ~n_instrs:150_000 in
      let trace = Simulator.Trace.Blocks eval in
      Array.iter
        (fun prefetch ->
          let program =
            (Pipeline.run
               {
                 Pipeline.Options.default with
                 prefetch;
                 pt_roundtrip = false;
                 threshold = 0.2;
                 min_support = 1;
               }
               ~source (Pipeline.Trace train))
              .Pipeline.program
          in
          if Program.static_hints program > 0 then incr hinted;
          let prefetcher = Pipeline.prefetcher_of prefetch in
          let original = Simulator.record ~program:source ~trace ~prefetcher () in
          let instrumented = Simulator.record ~program ~trace ~prefetcher () in
          checkb
            (Printf.sprintf "%s/%s: same recording" model.W.App_model.name
               (Pipeline.prefetch_name prefetch))
            true
            (recording_contents original = recording_contents instrumented))
        prefetches)
    W.Apps.all;
  checki "every cell carries hints" 27 !hinted

(* The recording's per-block offsets and the per-access position index
   describe the same coordinate change, in either backing. *)
let test_recording_positions () =
  let module Int_stream = Ripple_util.Int_stream in
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let program = w.W.Cfg_gen.program in
  let eval = W.Executor.run w ~input:W.Executor.train ~n_instrs:60_000 in
  let trace = Simulator.Trace.Blocks eval in
  let prefetcher = Simulator.prefetcher_fdip in
  let recording = Simulator.record ~program ~trace ~prefetcher () in
  let _, pos = Simulator.record_stream_indexed ~program ~trace:eval ~prefetcher () in
  let spilled, spilled_pos =
    Simulator.record_stream_indexed_trace ~backing:Int_stream.Spill ~program ~trace ~prefetcher ()
  in
  checkb "spilled index equals the heap one" true
    (Int_stream.to_array spilled_pos = pos
    && Cache.Access_stream.to_array spilled
       = Cache.Access_stream.to_array (Simulator.Recording.stream recording));
  Cache.Access_stream.close spilled;
  Int_stream.close spilled_pos;
  checki "one position per access" (Array.length pos)
    (Cache.Access_stream.length (Simulator.Recording.stream recording));
  checkb "positions agree" true
    (Array.for_all Fun.id (Array.mapi (fun i at -> Simulator.Recording.position recording i = at) pos));
  List.iter
    (fun warmup ->
      checki
        (Printf.sprintf "count_from %d" warmup)
        (Simulator.stream_count_from ~stream_pos:pos ~warmup)
        (Simulator.Recording.count_from recording ~warmup))
    [ 0; 1; Array.length eval / 2; Array.length eval - 1; Array.length eval; Array.length eval + 5 ];
  match Simulator.replay ~program ~trace:(Simulator.Trace.Blocks [| 0 |]) ~policy:Cache.Lru.make recording with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "replaying a recording of another trace must be refused"

let suites =
  [
    ( "cpu.config",
      [
        Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "penalties" `Quick test_config_penalties;
        Alcotest.test_case "table renders" `Quick test_config_table_renders;
      ] );
    ( "cpu.hierarchy",
      [
        Alcotest.test_case "levels" `Quick test_hierarchy_levels;
        Alcotest.test_case "l3 capture" `Quick test_hierarchy_l3_capture;
      ] );
    ( "cpu.simulator",
      [
        Alcotest.test_case "ideal cache cycles" `Quick test_ideal_cache_cycles;
        Alcotest.test_case "run counts" `Quick test_run_counts_misses_and_cycles;
        Alcotest.test_case "warmup excludes" `Quick test_run_warmup_excludes;
        Alcotest.test_case "executes hints" `Quick test_run_executes_hints;
        Alcotest.test_case "record stream demand" `Quick test_record_stream_demand_content;
        Alcotest.test_case "record stream prefetches" `Quick test_record_stream_includes_prefetches;
        Alcotest.test_case "oracle vs lru" `Quick test_oracle_not_worse_than_lru;
        Alcotest.test_case "oracle warmup" `Quick test_oracle_warmup_consistent;
        Alcotest.test_case "stream trace = block trace" `Slow test_run_trace_stream_equivalence;
      ] );
    ( "cpu.split",
      [
        QCheck_alcotest.to_alcotest prop_split_matches_reference;
        Alcotest.test_case "rdip under lru = reference" `Slow test_rdip_lru_matches_reference;
        Alcotest.test_case "nine apps: instrumented recording = original" `Slow
          test_instrumented_recording_equals_original;
        Alcotest.test_case "recording positions" `Quick test_recording_positions;
      ] );
  ]
