(* verify: offline Ripple with the static verifier on (Fig. 4 plus lint),
   evaluated under LRU against an LRU baseline, on kafka and verilator.
   The analysis layer does most of the work; the two CFG shapes separate
   per-hint proof cost (kafka) from fixpoint cost (verilator). *)

module W = Ripple_workloads
module Program = Ripple_isa.Program
module Pt = Ripple_trace.Pt
module Bb_trace = Ripple_trace.Bb_trace
module Lru = Ripple_cache.Lru
module Belady = Ripple_cache.Belady
module Access_stream = Ripple_cache.Access_stream
module Stats = Ripple_cache.Stats
module Int_stream = Ripple_util.Int_stream
module Json = Ripple_util.Json
module Config = Ripple_cpu.Config
module Simulator = Ripple_cpu.Simulator
module Pipeline = Ripple_core.Pipeline
module Cue_block = Ripple_core.Cue_block
module Injector = Ripple_core.Injector
module Eviction_window = Ripple_core.Eviction_window
module Lint = Ripple_analysis.Lint
module Cfg = Ripple_analysis.Cfg
module Abs_cache = Ripple_analysis.Abs_cache
module Invalidation_check = Ripple_analysis.Invalidation_check
open Measure

type app = {
  name : string;
  program : Program.t;
  pt : bytes;  (** the profiling capture, PT-encoded *)
  eval : int array;  (** the evaluation trace (a different input) *)
  instrs : int;  (** instructions in the profile and evaluation traces *)
}

(* Instructions per app.  Kafka's profile is long enough for Ripple to
   place about 160 hints, whose classification and proofs are kafka's
   largest analysis cost; verilator's is its abstract fixpoint, which the
   trace length hardly moves.  A pass takes about 7 s, so that a run's
   median is taken over five passes rather than three. *)
let sizes = function
  | Ctx.Full -> [ (W.Apps.kafka, 350_000); (W.Apps.verilator, 150_000) ]
  | Ctx.Tiny -> [ (W.Apps.kafka, 30_000); (W.Apps.verilator, 20_000) ]

(* The profile comes from the fixed training input, as in the paper's
   method: one profile per app, evaluated on other inputs.  The seed
   picks the evaluation input among #0..#3 and reseeds its execution.
   Keeping the profile fixed keeps the analysis work (most of the run)
   the same for every seed; the seed moves the evaluation. *)
let setup ?r (ctx : Ctx.t) =
  List.mapi
    (fun i (model, n_instrs) ->
      let w = call r "workloads.generate_s" (fun () -> W.Cfg_gen.generate model) in
      let program = w.W.Cfg_gen.program in
      let exec input =
        let t = call r "workloads.execute_s" (fun () -> W.Executor.run w ~input ~n_instrs) in
        Option.iter (fun r -> Recorder.add r "workloads.blocks" (Float.of_int (Array.length t))) r;
        t
      in
      let profile = exec W.Executor.train in
      let eval = exec (Ctx.input ctx W.Executor.eval_inputs.(Ctx.pick ctx 4) ~salt:i) in
      let pt = call r "trace.encode_s" (fun () -> Pt.encode program profile) in
      {
        name = model.W.App_model.name;
        program;
        pt;
        eval;
        instrs = Bb_trace.n_instrs program profile + Bb_trace.n_instrs program eval;
      })
    (sizes ctx.Ctx.size)

let prefetch = Pipeline.Fdip
let config = Config.default
let prefetcher = Pipeline.prefetcher_of ~config prefetch
let warmup app = Array.length app.eval / 2

let options app =
  {
    Pipeline.Options.default with
    verify = true;
    eval = Some (Pipeline.Eval.v ~warmup:(warmup app) ~trace:app.eval ~policy:Lru.make ());
  }

(* One operation's untraced work for one app: the verified pipeline and
   the LRU baseline it is compared against. *)
let run_app app =
  let oc = Pipeline.run (options app) ~source:app.program (Pipeline.Pt_bytes app.pt) in
  let baseline =
    Simulator.run ~config ~warmup:(warmup app) ~program:app.program ~trace:app.eval
      ~policy:Lru.make ~prefetcher ()
  in
  (oc, baseline)

(* A byte rendering of a laid-out program, hints included. *)
let program_digest p =
  let d = Digest.create () in
  Digest.add_string d (string_of_int (Program.entry p));
  Array.iter
    (fun (b : Ripple_isa.Basic_block.t) ->
      Digest.add_string d
        (Printf.sprintf "%d %d %d %d %b %s" b.id b.addr b.bytes b.n_instrs b.jit
           (String.concat ","
              (Array.to_list
                 (Array.map
                    (fun h ->
                      (match h with Ripple_isa.Basic_block.Invalidate _ -> "i" | Demote _ -> "d")
                      ^ string_of_int (Ripple_isa.Basic_block.hint_line h))
                    b.hints)))))
    (Program.blocks p);
  Digest.hex d

let analysis_json (a : Pipeline.analysis) =
  let d = a.Pipeline.drops in
  let inj = a.Pipeline.injection in
  Json.Obj
    [
      ("threshold", Json.Float a.Pipeline.threshold);
      ("windows", Json.Int a.Pipeline.n_windows);
      ("decisions", Json.Int a.Pipeline.n_decisions);
      ( "drops",
        Json.List
          (List.map
             (fun n -> Json.Int n)
             [ d.windows_total; d.no_candidate; d.below_support; d.below_threshold; d.selected ])
      );
      ( "injection",
        Json.List
          (List.map
             (fun n -> Json.Int n)
             [ inj.injected; inj.skipped_jit; inj.skipped_cap; inj.blocks_touched ]) );
      ( "placements",
        Json.List
          (List.map
             (fun (p : Injector.placement) ->
               Json.List
                 [
                   Json.Int p.block; Json.Int p.line; Json.Float p.probability; Json.Int p.windows;
                 ])
             inj.placements) );
      ("lint", match a.Pipeline.lint with Some s -> Lint.to_json s | None -> Json.Null);
      ("degrade", Pipeline.Degrade.to_json a.Pipeline.degrade);
    ]

(* Everything deterministic an operation produced for one app, rendered:
   the instrumented program, analysis record (lint summary included) and
   evaluation.  The baseline is rendered separately. *)
let outcome_strings (oc : Pipeline.outcome) =
  [
    program_digest oc.Pipeline.program;
    Json.to_string (analysis_json oc.Pipeline.analysis);
    (match oc.Pipeline.evaluation with
    | Some ev -> Json.to_string (Pipeline.evaluation_to_json ev)
    | None -> "null");
  ]

let gain_pct (oc : Pipeline.outcome) (baseline : Simulator.result) =
  let ev = Option.get oc.Pipeline.evaluation in
  100.0 *. ((ev.Pipeline.result.Simulator.ipc /. baseline.Simulator.ipc) -. 1.0)

(* -------------------------- the traced run --------------------------- *)

(* [Pipeline.run]'s stages for this workload's options (PT input, verify
   on, degradation ladder off, LRU evaluation), re-composed from the
   layers' public functions with each call timed.  The result must equal
   what [Pipeline.run] returns, which the traced run checks. *)
let compose r app =
  let o = options app in
  let source = app.program in
  let recovery = Recorder.call r "trace.decode_s" (fun () -> Pt.decode_result source app.pt) in
  let trace = recovery.Pt.trace in
  Recorder.add r "trace.blocks" (Float.of_int (Array.length trace));
  let record program trace =
    let stream, pos =
      Recorder.call r "cpu.record_s" (fun () ->
          Simulator.record_stream_indexed_trace ~config ~program
            ~trace:(Simulator.Trace.Blocks trace) ~prefetcher ())
    in
    Recorder.add r "cpu.accesses" (Float.of_int (Access_stream.length stream));
    (stream, pos)
  in
  let belady stream =
    Recorder.call r "cache.belady_s" (fun () ->
        let tables = Belady.prepare stream in
        Fun.protect
          ~finally:(fun () -> Belady.close_tables tables)
          (fun () ->
            Belady.simulate ~tables config.Config.l1i ~mode:(Pipeline.belady_mode_of prefetch)
              stream))
  in
  let stream, pos = record source trace in
  Int_stream.close pos;
  let windows = Eviction_window.of_evictions (belady stream).Belady.evictions in
  let exec_counts = Bb_trace.exec_counts source trace in
  let decisions, drops =
    Recorder.call r "core.cue_select_s" (fun () ->
        Cue_block.analyze_report ~scan_limit:o.scan_limit ~min_support:o.min_support ~stream
          ~windows ~exec_counts ~threshold:o.threshold ())
  in
  let decisions =
    List.filter (fun (d : Cue_block.decision) -> d.cue_block < Program.n_blocks source) decisions
  in
  Access_stream.close stream;
  let instrumented, _remap, injection =
    Recorder.call r "core.inject_s" (fun () ->
        Injector.inject ~mode:o.mode ~skip_jit:o.skip_jit
          ~max_hints_per_block:o.max_hints_per_block ~program:source ~decisions ())
  in
  let provenance =
    List.map
      (fun (p : Injector.placement) ->
        { Lint.block = p.block; line = p.line; probability = p.probability; windows = p.windows })
      injection.Injector.placements
  in
  let lint =
    Recorder.call r "analysis.lint_s" (fun () ->
        Lint.check_program ~geometry:config.Config.l1i ~provenance ~exec_counts instrumented)
  in
  let analysis =
    {
      Pipeline.threshold = o.threshold;
      n_windows = Array.length windows;
      n_decisions = List.length decisions;
      drops;
      injection;
      lint = Some lint;
      degrade = { Pipeline.Degrade.full with salvage = recovery.Pt.salvage };
    }
  in
  (* Evaluation: the ideal windows of the evaluation stream are the
     accuracy yardstick, then the timing simulation counts past the
     half-trace warm-up. *)
  let warmup = warmup app in
  let stream, pos = record instrumented app.eval in
  let windows =
    Eviction_window.to_trace_coords_with
      (Eviction_window.of_evictions (belady stream).Belady.evictions)
      ~pos:(Int_stream.get pos)
  in
  Access_stream.close stream;
  Int_stream.close pos;
  let index = Eviction_window.Index.create windows in
  let hint_execs = ref 0 and accurate = ref 0 in
  let on_hint ~at hint ~resident =
    if at >= warmup then begin
      incr hint_execs;
      let line = Ripple_isa.Basic_block.hint_line hint in
      if (not resident) || Eviction_window.Index.mem index ~line ~at then incr accurate
    end
  in
  let result, _ =
    Recorder.call r "cpu.simulate_s" (fun () ->
        Simulator.run_trace ~config ~warmup ~on_hint ~program:instrumented
          ~trace:(Simulator.Trace.Blocks app.eval) ~policy:Lru.make ~prefetcher ())
  in
  let overhead extra base = if base = 0 then 0.0 else Float.of_int extra /. Float.of_int base in
  let evaluation =
    {
      Pipeline.result;
      coverage = Stats.coverage result.Simulator.l1i;
      accuracy =
        (if !hint_execs = 0 then 1.0 else Float.of_int !accurate /. Float.of_int !hint_execs);
      hint_execs = !hint_execs;
      static_overhead =
        overhead (Program.static_instrs instrumented - Program.static_instrs source)
          (Program.static_instrs source);
      dynamic_overhead =
        overhead result.Simulator.hint_instructions
          (result.Simulator.instructions - result.Simulator.hint_instructions);
      sample = None;
    }
  in
  (instrumented, analysis, evaluation)

(* The lint layers one by one, from outside: the structural checks, the
   abstract fixpoint, the path-search classifier and the per-hint proofs
   that [Lint.check_program] runs in one call. *)
let lint_layers r program =
  let geometry = config.Config.l1i in
  let entry = Program.entry program and blocks = Program.blocks program in
  ignore
    (Recorder.call r "analysis.structural_s" (fun () ->
         Cfg.check ~entry ~aligned:(Program.aligned program) blocks)
      : Ripple_analysis.Finding.t list);
  let abs =
    Recorder.call r "analysis.abstract_s" (fun () -> Abs_cache.analyze ~geometry ~entry blocks)
  in
  Recorder.add r "analysis.fixpoint_iterations"
    (Float.of_int (Abs_cache.solver_stats abs).Ripple_analysis.Fixpoint.iterations);
  let sites =
    Recorder.call r "analysis.classify_s" (fun () ->
        Invalidation_check.classify ~geometry ~entry blocks)
  in
  let safe =
    Recorder.call r "analysis.prove_s" (fun () ->
        List.fold_left
          (fun n ((s : Invalidation_check.site), _) ->
            if Abs_cache.proved_safe (Abs_cache.prove abs ~block:s.block ~index:s.index) then n + 1
            else n)
          0 sites)
  in
  Recorder.add r "analysis.sites" (Float.of_int (List.length sites));
  Recorder.add r "analysis.proved_safe" (Float.of_int safe)

(* ------------------------------ the runs ----------------------------- *)

let run ~trace (ctx : Ctx.t) =
  let t = Catalogue.tally () in
  (* One app's outcome and baseline rendered, and whether its lint
     reported no error and no classifier disagreement, which
     [check_lint] checks. *)
  let render app (oc : Pipeline.outcome) baseline =
    let lint = Option.get oc.Pipeline.analysis.Pipeline.lint in
    ( (app.name :: outcome_strings oc) @ [ Json.to_string (Simulator.result_to_json baseline) ],
      lint.Lint.errors = 0,
      lint.Lint.proofs.Lint.disagreements = 0 )
  in
  let work app =
    let oc, baseline = run_app app in
    render app oc baseline
  in
  let check_lint app (_, no_errors, no_disagreements) =
    Catalogue.attempt t;
    Catalogue.check t (app.name ^ ": lint errors = 0") no_errors;
    Catalogue.check t (app.name ^ ": lint disagreements = 0") no_disagreements
  in
  let digest_of works = Digest.of_strings (List.concat_map (fun (strings, _, _) -> strings) works) in
  if not trace then begin
    let apps, setup_s = Ctx.repeat_setup Ctx.setups (fun () -> setup ctx) in
    (* One operation: a verified pass over both apps, each app in a child
       process forked from the set-up state, as if each were verified by
       a process of its own.  Run in one process, verilator's peak
       resident set depends on how much memory kafka's run left behind,
       which moved it by a third between seeds; each app's peak from the
       set-up state varies by under one percent.  The pass's time is the
       sum of the apps' and its peak the larger of theirs, each measured
       in the child. *)
    let passes =
      Ctx.timed_loop ctx (fun () ->
          let runs =
            List.map
              (fun app ->
                let w, dt, mb = Ctx.forked (fun () -> Ctx.measured (fun () -> work app)) in
                check_lint app w;
                (w, dt, mb))
              apps
          in
          ( digest_of (List.map (fun (w, _, _) -> w) runs),
            sum (List.map (fun (_, dt, _) -> dt) runs),
            List.fold_left (fun m (_, _, mb) -> Float.max m mb) 0.0 runs ))
    in
    let first = List.hd passes.Ctx.results in
    Catalogue.check t "every pass has the first pass's digest"
      (List.for_all (String.equal first) passes.Ctx.results);
    let op_s = passes.Ctx.seconds in
    let instrs = List.fold_left (fun n a -> n + a.instrs) 0 apps in
    Catalogue.result t ~digest:first
      ~samples:[ ("passes", List.length op_s) ]
      ~ops_ms:(List.map (( *. ) 1000.0) op_s)
      ~metrics:
        [
          ("setup_s", setup_s);
          ("peak_rss_mb", median passes.Ctx.peak_mb);
          ("op_p50_ms", 1000.0 *. median op_s);
          ("minstr_per_s", Float.of_int instrs /. median op_s /. 1e6);
        ]
  end
  else begin
    let r = Recorder.create () in
    let apps = setup ~r ctx in
    (* One untraced pass in this process, for the outcomes the
       re-composition must equal. *)
    let untraced, pass_s =
      time (fun () ->
          List.map
            (fun app ->
              let oc, baseline = run_app app in
              check_lint app (render app oc baseline);
              (app, oc, baseline))
            apps)
    in
    (* The tracing overhead compares the re-composition with
       [Pipeline.run] alone, both on the heap the first pass grew. *)
    Gc.compact ();
    let traced, traced_s = time (fun () -> List.map (compose r) apps) in
    Gc.compact ();
    let (), untraced_s =
      time (fun () ->
          List.iter
            (fun app ->
              ignore (Pipeline.run (options app) ~source:app.program (Pipeline.Pt_bytes app.pt)))
            apps)
    in
    List.iter2
      (fun (app, (oc : Pipeline.outcome), _) (program, analysis, evaluation) ->
        Catalogue.check t
          (app.name ^ ": traced composition equals Pipeline.run")
          (outcome_strings oc
          = outcome_strings { oc with Pipeline.program; analysis; evaluation = Some evaluation }))
      untraced traced;
    (* The lint layers repeat [Lint.check_program]'s work: its allocation
       is counted once, before them. *)
    let analysis_alloc = Recorder.alloc_mwords r "analysis" in
    List.iter (fun (program, _, _) -> lint_layers r program) traced;
    List.iter
      (fun app ->
        let res =
          Recorder.call r "cpu.simulate_s.lru" (fun () ->
              Simulator.run ~config ~warmup:(warmup app) ~program:app.program ~trace:app.eval
                ~policy:Lru.make ~prefetcher ())
        in
        Recorder.add r "lru.accesses" (Float.of_int (Stats.total_accesses res.Simulator.l1i)))
      apps;
    let mean_of f = mean (List.map f untraced) in
    let sum_of f = sum (List.map f untraced) in
    let ev (_, (oc : Pipeline.outcome), _) = Option.get oc.Pipeline.evaluation in
    let an (_, (oc : Pipeline.outcome), _) = oc.Pipeline.analysis in
    let ratio a b = if b > 0.0 then a /. b else 0.0 in
    let metrics =
      [
        ( "cpu.maccesses_per_s.lru",
          ratio (Recorder.get r "lru.accesses") (Recorder.get r "cpu.simulate_s.lru") /. 1e6 );
        ("cpu.ripple_gain_pct", mean_of (fun (_, oc, b) -> gain_pct oc b));
        ("cpu.alloc_mwords", Recorder.alloc_mwords r "cpu");
        ("cache.mpki.lru", mean_of (fun (_, _, b) -> b.Simulator.mpki));
        ("cache.mpki.ripple", mean_of (fun x -> (ev x).Pipeline.result.Simulator.mpki));
        ("core.windows", sum_of (fun x -> Float.of_int (an x).Pipeline.n_windows));
        ( "core.selected_frac",
          ratio
            (sum_of (fun x -> Float.of_int (an x).Pipeline.drops.Cue_block.selected))
            (sum_of (fun x -> Float.of_int (an x).Pipeline.drops.Cue_block.windows_total)) );
        ("core.decisions", sum_of (fun x -> Float.of_int (an x).Pipeline.n_decisions));
        ("core.hints", sum_of (fun x -> Float.of_int (an x).Pipeline.injection.Injector.injected));
        ("core.hint_accuracy", mean_of (fun x -> (ev x).Pipeline.accuracy));
        ("core.hint_coverage", mean_of (fun x -> (ev x).Pipeline.coverage));
        ("core.alloc_mwords", Recorder.alloc_mwords r "core");
        ( "analysis.proved_safe_frac",
          ratio (Recorder.get r "analysis.proved_safe") (Recorder.get r "analysis.sites") );
        ("analysis.alloc_mwords", analysis_alloc);
        ("trace.salvage", mean_of (fun x -> (an x).Pipeline.degrade.Pipeline.Degrade.salvage));
        ("tracing.untraced_s", untraced_s);
        ("tracing.traced_s", traced_s);
      ]
    in
    Catalogue.result t
      ~digest:(digest_of (List.map (fun (app, oc, b) -> render app oc b) untraced))
      ~samples:[ ("passes", 1) ]
      ~ops_ms:[ 1000.0 *. pass_s ] ~metrics:(Catalogue.traced r metrics)
  end
