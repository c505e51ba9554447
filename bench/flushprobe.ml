(* Timing probe for the two loops a serve flush repeats: cue selection
   over every eviction window of the profile, and the hint classifier
   over the program the decisions instrument.  One line per app:

     dune exec --profile release bench/flushprobe.exe [app]

   Each app is profiled on 500 k instructions of its training input
   under the default pipeline options (FDIP prefetching, Demand-MIN
   windows, default threshold and limits).  Without an argument it runs
   all nine apps.  A profile shape that makes either loop superlinear
   shows here as a time far out of line with its [windows] or
   [hint_sites] count. *)
module W = Ripple_workloads
module Program = Ripple_isa.Program
module Bb_trace = Ripple_trace.Bb_trace
module Belady = Ripple_cache.Belady
module Config = Ripple_cpu.Config
module Simulator = Ripple_cpu.Simulator
module Pipeline = Ripple_core.Pipeline
module Eviction_window = Ripple_core.Eviction_window
module Cue_block = Ripple_core.Cue_block
module Injector = Ripple_core.Injector
module Invalidation_check = Ripple_analysis.Invalidation_check

let n_instrs = 500_000
let o = Pipeline.Options.default
let config = o.Pipeline.Options.config
let prefetch = o.Pipeline.Options.prefetch

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let probe (model : W.App_model.t) =
  let workload = W.Cfg_gen.generate model in
  let program = workload.W.Cfg_gen.program in
  let trace = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
  let stream =
    Simulator.record_stream ~config ~program ~trace
      ~prefetcher:(Pipeline.prefetcher_of ~config prefetch) ()
  in
  let windows =
    let tables = Belady.prepare stream in
    Fun.protect
      ~finally:(fun () -> Belady.close_tables tables)
      (fun () ->
        Eviction_window.of_evictions
          (Belady.simulate ~tables config.Config.l1i ~mode:(Pipeline.belady_mode_of prefetch)
             stream)
            .Belady.evictions)
  in
  let exec_counts = Bb_trace.exec_counts program trace in
  let (decisions, _), cue_s =
    timed (fun () ->
        Cue_block.analyze_report ~scan_limit:o.Pipeline.Options.scan_limit
          ~min_support:o.Pipeline.Options.min_support ~stream ~windows ~exec_counts
          ~threshold:o.Pipeline.Options.threshold ())
  in
  let instrumented, _, _ =
    Injector.inject ~mode:o.Pipeline.Options.mode ~skip_jit:o.Pipeline.Options.skip_jit
      ~max_hints_per_block:o.Pipeline.Options.max_hints_per_block ~program ~decisions ()
  in
  let sites, classify_s =
    timed (fun () ->
        Invalidation_check.classify ~geometry:config.Config.l1i
          ~entry:(Program.entry instrumented) (Program.blocks instrumented))
  in
  Printf.printf "app=%s blocks=%d windows=%d cue_select=%.3fs hint_sites=%d classify=%.3fs\n%!"
    model.W.App_model.name (Program.n_blocks program) (Array.length windows) cue_s
    (List.length sites) classify_s

let () =
  let models =
    if Array.length Sys.argv > 1 then
      match W.Apps.by_name Sys.argv.(1) with
      | Some m -> [ m ]
      | None -> failwith ("unknown app " ^ Sys.argv.(1))
    else W.Apps.all
  in
  List.iter probe models
