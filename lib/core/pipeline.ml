module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block
module Belady = Ripple_cache.Belady
module Pt = Ripple_trace.Pt
module Bb_trace = Ripple_trace.Bb_trace
module Config = Ripple_cpu.Config
module Simulator = Ripple_cpu.Simulator
module Obs = Ripple_obs

type prefetch = No_prefetch | Nlp | Fdip

let prefetch_name = function No_prefetch -> "none" | Nlp -> "nlp" | Fdip -> "fdip"

let prefetcher_of ?config prefetch program =
  match prefetch with
  | No_prefetch -> Simulator.prefetcher_none program
  | Nlp -> Simulator.prefetcher_nlp ?config program
  | Fdip -> Simulator.prefetcher_fdip ?config program

let belady_mode_of = function No_prefetch -> Belady.Min | Nlp | Fdip -> Belady.Demand_min

module Lint = Ripple_analysis.Lint
module Invalidation_check = Ripple_analysis.Invalidation_check
module Abs_cache = Ripple_analysis.Abs_cache
module Json = Ripple_util.Json
module Access_stream = Ripple_cache.Access_stream

module Degrade = struct
  type level = Full | Safe_only | Hints_off

  let level_name = function Full -> "full" | Safe_only -> "safe-only" | Hints_off -> "off"
  let code = function Full -> 0 | Safe_only -> 1 | Hints_off -> 2
  let of_code = function 0 -> Full | 1 -> Safe_only | _ -> Hints_off

  type t = {
    level : level;
    fingerprint_ok : bool;
    salvage : float;
    drift : float;
    stripped : int;
  }

  let full = { level = Full; fingerprint_ok = true; salvage = 1.0; drift = 0.0; stripped = 0 }

  let to_json t =
    Json.Obj
      [
        ("level", Json.String (level_name t.level));
        ("fingerprint_ok", Json.Bool t.fingerprint_ok);
        ("salvage", Json.Float t.salvage);
        ("drift", Json.Float t.drift);
        ("stripped", Json.Int t.stripped);
      ]
end

type analysis = {
  threshold : float;
  n_windows : int;
  n_decisions : int;
  drops : Cue_block.drops;
  injection : Injector.stats;
  lint : Lint.summary option;
  degrade : Degrade.t;
}

module Eval = struct
  type t = {
    trace : Simulator.Trace.t;
    policy : Ripple_cache.Policy.factory;
    warmup : int;
    recording : Simulator.Recording.t option;
  }

  let v ?(warmup = 0) ?recording ~trace ~policy () =
    { trace = Simulator.Trace.Blocks trace; policy; warmup; recording }
end

module Options = struct
  type t = {
    config : Config.t;
    threshold : float;
    mode : Injector.mode;
    skip_jit : bool;
    max_hints_per_block : int;
    scan_limit : int;
    min_support : int;
    exclude_prefetch_covered : bool;
    pt_roundtrip : bool;
    verify : bool;
    degrade : bool;
    min_salvage : float;
    prefetch : prefetch;
    eval : Eval.t option;
    backing : Access_stream.backing;
  }

  let default =
    {
      config = Config.default;
      threshold = 0.5;
      mode = Injector.Invalidate;
      skip_jit = true;
      max_hints_per_block = Injector.default_max_hints_per_block;
      scan_limit = Cue_block.default_scan_limit;
      min_support = Cue_block.default_min_support;
      exclude_prefetch_covered = false;
      pt_roundtrip = true;
      verify = false;
      degrade = false;
      min_salvage = 0.5;
      prefetch = Fdip;
      eval = None;
      backing = Access_stream.Heap;
    }
end

(* The ladder's fixed thresholds, beside the caller's [min_salvage].
   Below [safe_salvage] a profile is partial enough, and above
   [drift_safe] (the illegal-transition fraction) it has drifted
   enough, that the run drops to safe-only: the hints the path-search
   classifier flags harmful or redundant are stripped and every other
   hint ships.  Above [drift_off] the profile is discarded outright. *)
let safe_salvage = 0.95
let drift_safe = 0.02
let drift_off = 0.15

type profile = {
  trace : int array;
  source : Program.t;
  salvage : float;
  pt_errors : int;
}

type input =
  | Trace of int array
  | Pt_bytes of bytes
  | Profile of profile

let profile_of_recovery ~source (r : Pt.recovery) =
  { trace = r.Pt.trace; source; salvage = r.Pt.salvage; pt_errors = List.length r.Pt.errors }

let profile_of ~source = function
  | Trace trace -> { trace; source; salvage = 1.0; pt_errors = 0 }
  | Pt_bytes data -> profile_of_recovery ~source (Pt.decode_result source data)
  | Profile p -> p

let provenance_of_stats (s : Injector.stats) =
  List.map
    (fun (p : Injector.placement) ->
      {
        Lint.block = p.Injector.block;
        line = p.Injector.line;
        probability = p.Injector.probability;
        windows = p.Injector.windows;
      })
    s.Injector.placements

let no_drops =
  {
    Cue_block.windows_total = 0;
    no_candidate = 0;
    below_support = 0;
    below_threshold = 0;
    selected = 0;
  }

let no_injection =
  { Injector.injected = 0; skipped_jit = 0; skipped_cap = 0; blocks_touched = 0; placements = [] }

(* ------------------------- the metric vocabulary ------------------------- *)

(* One record of metric cells per run, resolved once so stage code holds
   cells, not names.  Registration is find-or-create and covers the
   whole vocabulary up front (including the simulator family), so every
   outcome snapshot carries the complete schema regardless of which
   branches executed — the invariant docs/metrics.schema is checked
   against. *)
module Metrics = struct
  type t = {
    decode_blocks : Obs.Metric.counter;
    decode_errors : Obs.Metric.counter;
    decode_salvage : Obs.Metric.gauge;
    profile_drift : Obs.Metric.gauge;
    degrade_level : Obs.Metric.gauge;
    profile_accesses : Obs.Metric.counter;
    belady_windows : Obs.Metric.counter;
    belady_window_blocks : Obs.Metric.histogram;
    cue_no_candidate : Obs.Metric.counter;
    cue_below_support : Obs.Metric.counter;
    cue_below_threshold : Obs.Metric.counter;
    cue_selected : Obs.Metric.counter;
    cue_decisions : Obs.Metric.counter;
    cue_probability : Obs.Metric.histogram;
    inject_hints : Obs.Metric.counter;
    inject_stripped : Obs.Metric.counter;
    inject_skipped_jit : Obs.Metric.counter;
    inject_skipped_cap : Obs.Metric.counter;
    inject_blocks_touched : Obs.Metric.counter;
    lint_errors : Obs.Metric.counter;
    lint_warnings : Obs.Metric.counter;
    lint_infos : Obs.Metric.counter;
    lint_must_hit_sites : Obs.Metric.counter;
    lint_always_miss_sites : Obs.Metric.counter;
    lint_first_miss_lines : Obs.Metric.counter;
    lint_persistent_sets : Obs.Metric.counter;
    lint_proved_safe_hints : Obs.Metric.counter;
    lint_proved_harmful_hints : Obs.Metric.counter;
    lint_disagreements : Obs.Metric.counter;
    lint_mpki_lower : Obs.Metric.gauge;
    lint_mpki_upper : Obs.Metric.gauge;
    lint_min_ways : Obs.Metric.gauge;
    eval_coverage : Obs.Metric.gauge;
    eval_accuracy : Obs.Metric.gauge;
    eval_hint_execs : Obs.Metric.counter;
    stream_backing : Obs.Metric.gauge;
    stream_spill_bytes : Obs.Metric.counter;
  }

  let register reg =
    let c name help = Obs.Registry.counter reg ~help name in
    let g name help = Obs.Registry.gauge reg ~help name in
    let h name bounds help = Obs.Registry.histogram reg ~help ~bounds name in
    Simulator.register_obs reg;
    {
      decode_blocks = c "ripple_decode_blocks" "basic blocks recovered from the capture";
      decode_errors = c "ripple_decode_errors" "decode errors survived by resynchronization";
      decode_salvage = g "ripple_decode_salvage" "fraction of the capture recovered";
      profile_drift = g "ripple_profile_drift" "illegal-transition fraction vs the target CFG";
      degrade_level = g "ripple_degrade_level" "ladder rung: 0 full, 1 safe-only, 2 off";
      profile_accesses = c "ripple_profile_accesses" "recorded profile access-stream entries";
      belady_windows = c "ripple_belady_windows" "ideal-policy eviction windows";
      belady_window_blocks =
        h "ripple_belady_window_blocks"
          [ 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0 ]
          "eviction-window length in stream entries";
      cue_no_candidate = c "ripple_cue_windows_no_candidate" "windows with no cue candidate";
      cue_below_support = c "ripple_cue_windows_below_support" "windows under min support";
      cue_below_threshold =
        c "ripple_cue_windows_below_threshold" "windows under the probability threshold";
      cue_selected = c "ripple_cue_windows_selected" "windows covered by a selected cue";
      cue_decisions = c "ripple_cue_decisions" "deduplicated (cue, victim) decisions";
      cue_probability =
        h "ripple_cue_probability"
          [ 0.2; 0.4; 0.5; 0.6; 0.8; 0.9 ]
          "conditional eviction probability of selected cues";
      inject_hints = c "ripple_inject_hints" "hints present in the shipped binary";
      inject_stripped = c "ripple_inject_stripped" "hints removed by the safe-only filter";
      inject_skipped_jit = c "ripple_inject_skipped_jit" "decisions dropped in JIT code";
      inject_skipped_cap = c "ripple_inject_skipped_cap" "decisions over the per-block cap";
      inject_blocks_touched = c "ripple_inject_blocks_touched" "blocks that received a hint";
      lint_errors = c "ripple_lint_errors" "static-verifier errors on the shipped binary";
      lint_warnings = c "ripple_lint_warnings" "static-verifier warnings";
      lint_infos = c "ripple_lint_infos" "static-verifier infos";
      lint_must_hit_sites =
        c "ripple_lint_must_hit_sites" "access sites the abstract analysis proves always hit";
      lint_always_miss_sites =
        c "ripple_lint_always_miss_sites" "access sites proved to always miss from a cold start";
      lint_first_miss_lines =
        c "ripple_lint_first_miss_lines" "lines proved to miss at most once";
      lint_persistent_sets =
        c "ripple_lint_persistent_sets" "cache sets whose reachable lines all fit";
      lint_proved_safe_hints =
        c "ripple_lint_proved_safe_hints" "hints with a positive abstract safety proof";
      lint_proved_harmful_hints =
        c "ripple_lint_proved_harmful_hints" "hints proved to convert a hit to a miss";
      lint_disagreements =
        c "ripple_lint_disagreements" "classifier cross-check contradictions";
      lint_mpki_lower = g "ripple_lint_mpki_lower" "static lower bound on demand MPKI";
      lint_mpki_upper = g "ripple_lint_mpki_upper" "static upper bound on demand MPKI";
      lint_min_ways =
        g "ripple_lint_min_ways" "minimal associativity covering the dominant blocks";
      eval_coverage = g "ripple_eval_coverage" "replacement coverage of the evaluated run";
      eval_accuracy = g "ripple_eval_accuracy" "replacement accuracy of the evaluated run";
      eval_hint_execs = c "ripple_eval_hint_execs" "dynamic hint executions while evaluated";
      stream_backing = g "ripple_stream_backing" "access-stream backing: 0 heap, 1 mmap";
      stream_spill_bytes = c "ripple_stream_spill_bytes" "bytes written to stream spill files";
    }
end

let stage obs name f = Obs.Span.with_span (Obs.Run.spans obs) name f

(* Safe-only mode: classify every injected hint on the instrumented
   binary and strip the ones the path-search classifier flags Harmful
   or Redundant (everything else ships), keeping injection stats and
   provenance in step.  Placements are ordered block-ascending then by
   within-block injection order, matching each block's hint array — so
   the (block, hint-index) key filters both consistently. *)
let strip_unsafe ~(config : Config.t) instrumented (injection : Injector.stats) =
  let unsafe = Hashtbl.create 16 in
  List.iter
    (fun ((site : Invalidation_check.site), cls) ->
      match cls with
      | Invalidation_check.Harmful _ | Invalidation_check.Redundant _ ->
        Hashtbl.replace unsafe (site.Invalidation_check.block, site.Invalidation_check.index) ()
      | Invalidation_check.Safe_dead | Invalidation_check.Safe_pressure -> ())
    (Invalidation_check.classify ~geometry:config.Config.l1i ~entry:(Program.entry instrumented)
       (Program.blocks instrumented));
  if Hashtbl.length unsafe = 0 then (instrumented, injection, 0)
  else begin
    let stripped = Hashtbl.length unsafe in
    let hints =
      Array.mapi
        (fun b (blk : Basic_block.t) ->
          List.filteri
            (fun i _ -> not (Hashtbl.mem unsafe (b, i)))
            (Array.to_list blk.Basic_block.hints))
        (Program.blocks instrumented)
    in
    let program, _remap = Program.with_hints instrumented ~hints in
    let counters = Hashtbl.create 16 in
    let placements =
      List.filter
        (fun (p : Injector.placement) ->
          let b = p.Injector.block in
          let i = Option.value (Hashtbl.find_opt counters b) ~default:0 in
          Hashtbl.replace counters b (i + 1);
          not (Hashtbl.mem unsafe (b, i)))
        injection.Injector.placements
    in
    let blocks_touched = Array.fold_left (fun acc h -> if h <> [] then acc + 1 else acc) 0 hints in
    let injection =
      {
        injection with
        Injector.injected = injection.Injector.injected - stripped;
        blocks_touched;
        placements;
      }
    in
    (program, injection, stripped)
  end

type evaluation = {
  result : Simulator.result;
  coverage : float;
  accuracy : float;
  hint_execs : int;
  static_overhead : float;
  dynamic_overhead : float;
  sample : unit option;
}

let evaluation_to_json (ev : evaluation) =
  Json.Obj
    [
      ("result", Simulator.result_to_json ev.result);
      ("coverage", Json.Float ev.coverage);
      ("accuracy", Json.Float ev.accuracy);
      ("hint_execs", Json.Int ev.hint_execs);
      ("static_overhead", Json.Float ev.static_overhead);
      ("dynamic_overhead", Json.Float ev.dynamic_overhead);
    ]

let overhead ~extra ~base = if base = 0 then 0.0 else Float.of_int extra /. Float.of_int base

(* Instrumented-run evaluation (the paper's metrics): [run]'s simulate
   stage, over one recording of the evaluation trace.  The timing
   simulation's counters go to [obs] and the Ripple accuracy/coverage
   gauges to the run's cells [m]. *)
let eval_core ~obs ~(m : Metrics.t) ~backing ~(config : Config.t) ~warmup ~original
    ~instrumented ~(trace : Simulator.Trace.t) ~recording ~policy ~mode () =
  (* Ideal eviction windows on the evaluation stream, in trace
     coordinates: the accuracy yardstick.  With a spill backing, the
     Belady working tables live in mmap files — the heap cost of this
     stage stays O(windows), not O(trace). *)
  let windows =
    let stream = Simulator.Recording.stream recording in
    let tables = Belady.prepare ~backing stream in
    let replay =
      Fun.protect
        ~finally:(fun () -> Belady.close_tables tables)
        (fun () -> Belady.simulate ~tables config.Config.l1i ~mode stream)
    in
    Eviction_window.to_trace_coords_with
      (Eviction_window.of_evictions replay.Belady.evictions)
      ~pos:(Simulator.Recording.position recording)
  in
  let index = Eviction_window.Index.create windows in
  let hint_execs = ref 0 in
  let accurate = ref 0 in
  let on_hint ~at hint ~resident =
    if at >= warmup then begin
      incr hint_execs;
      (* A hint that fires inside one of its victim's ideal windows evicts a
         line the ideal policy would evict too; one that finds the line
         absent cannot introduce a miss either. *)
      let line = Basic_block.hint_line hint in
      if (not resident) || Eviction_window.Index.mem index ~line ~at then incr accurate
    end
  in
  let result =
    Simulator.replay ~config ~warmup ~obs ~on_hint ~program:instrumented ~trace ~policy recording
  in
  let accuracy =
    if !hint_execs = 0 then 1.0 else Float.of_int !accurate /. Float.of_int !hint_execs
  in
  let ev =
    {
      result;
      coverage = Ripple_cache.Stats.coverage result.Simulator.l1i;
      accuracy;
      hint_execs = !hint_execs;
      static_overhead =
        overhead
          ~extra:(Program.static_instrs instrumented - Program.static_instrs original)
          ~base:(Program.static_instrs original);
      dynamic_overhead =
        overhead ~extra:result.Simulator.hint_instructions
          ~base:(result.Simulator.instructions - result.Simulator.hint_instructions);
      sample = None;
    }
  in
  Obs.Metric.set m.Metrics.eval_coverage ev.coverage;
  Obs.Metric.set m.Metrics.eval_accuracy ev.accuracy;
  Obs.Metric.add m.Metrics.eval_hint_execs ev.hint_execs;
  ev

type outcome = {
  program : Program.t;
  analysis : analysis;
  evaluation : evaluation option;
  obs : Obs.Run.t;
  metrics : Obs.Snapshot.t;
}

let register_metrics reg = ignore (Metrics.register reg : Metrics.t)

(* One end-to-end run: the six instrumented stages (decode → profile →
   belady → cue-select → inject → simulate), each a span in [obs] with
   its counters. *)
let run ?obs (o : Options.t) ~source input =
  let obs = match obs with Some obs -> obs | None -> Obs.Run.create () in
  let m = Metrics.register (Obs.Run.registry obs) in
  let config = o.Options.config in
  let prefetch = o.Options.prefetch in
  (* Stage 1 (Fig. 4): runtime profiling.  The analysis consumes what
     hardware tracing can reconstruct — raw traces pass through the
     PT-style codec round trip unless the caller opted out (stitched LBR
     samples are not a single legal path). *)
  let profile =
    stage obs "decode" (fun () ->
        match input with
        | Trace t when o.Options.pt_roundtrip ->
          profile_of ~source (Pt_bytes (Pt.encode source t))
        | (Trace _ | Pt_bytes _ | Profile _) as input -> profile_of ~source input)
  in
  Obs.Metric.add m.Metrics.decode_blocks (Array.length profile.trace);
  Obs.Metric.add m.Metrics.decode_errors profile.pt_errors;
  Obs.Metric.set m.Metrics.decode_salvage profile.salvage;
  let fingerprint_ok =
    Program.layout_fingerprint profile.source = Program.layout_fingerprint source
  in
  (* Drift is measured against the binary about to be instrumented: the
     fraction of profile transitions its CFG cannot produce. *)
  let drift = if o.Options.degrade then Bb_trace.drift source profile.trace else 0.0 in
  let level =
    if not o.Options.degrade then Degrade.Full
    else if profile.salvage < o.Options.min_salvage || drift > drift_off then Degrade.Hints_off
    else if (not fingerprint_ok) || drift > drift_safe || profile.salvage < safe_salvage then
      Degrade.Safe_only
    else Degrade.Full
  in
  Obs.Metric.set m.Metrics.profile_drift drift;
  Obs.Metric.set m.Metrics.degrade_level (float_of_int (Degrade.code level));
  let degrade_record ~stripped =
    { Degrade.level; fingerprint_ok; salvage = profile.salvage; drift; stripped }
  in
  let instrumented, analysis =
    match level with
    | Degrade.Hints_off ->
      (* The profile is not trustworthy enough to act on at all: ship the
         binary untouched, so behaviour is exactly the baseline policy. *)
      ( source,
        {
          threshold = o.Options.threshold;
          n_windows = 0;
          n_decisions = 0;
          drops = no_drops;
          injection = no_injection;
          lint = None;
          degrade = degrade_record ~stripped:0;
        } )
    | Degrade.Full | Degrade.Safe_only ->
      (* Step 2 (Fig. 4): ideal-policy replay over the stream the
         prefetcher produces on the profiled layout, yielding eviction
         windows. *)
      let profiled =
        stage obs "profile" (fun () ->
            Simulator.record ~config ~backing:o.Options.backing ~program:profile.source
              ~trace:(Simulator.Trace.Blocks profile.trace)
              ~prefetcher:(prefetcher_of ~config prefetch)
              ())
      in
      let stream = Simulator.Recording.stream profiled in
      Obs.Metric.add m.Metrics.profile_accesses (Access_stream.length stream);
      let windows =
        stage obs "belady" (fun () ->
            let tables = Belady.prepare ~backing:o.Options.backing stream in
            let replay =
              Fun.protect
                ~finally:(fun () -> Belady.close_tables tables)
                (fun () ->
                  Belady.simulate ~tables config.Config.l1i ~mode:(belady_mode_of prefetch)
                    stream)
            in
            Eviction_window.of_evictions
              ~demand_covered_only:o.Options.exclude_prefetch_covered replay.Belady.evictions)
      in
      Obs.Metric.add m.Metrics.belady_windows (Array.length windows);
      Array.iter
        (fun (w : Eviction_window.t) ->
          Obs.Metric.observe m.Metrics.belady_window_blocks
            (Float.of_int (w.Eviction_window.stop - w.Eviction_window.start)))
        windows;
      (* Per-block execution counts from the profile, shared by cue
         selection and the lint gate's static MPKI bounds. *)
      let exec_counts = Bb_trace.exec_counts profile.source profile.trace in
      let decisions, drops =
        stage obs "cue-select" (fun () ->
            let decisions, drops =
              Cue_block.analyze_report ~scan_limit:o.Options.scan_limit
                ~min_support:o.Options.min_support ~stream ~windows ~exec_counts
                ~threshold:o.Options.threshold ()
            in
            (* Injection targets the binary being shipped, which may not
               be the layout the profile was collected on: decisions past
               its block count cannot land. *)
            ( List.filter
                (fun (d : Cue_block.decision) ->
                  d.Cue_block.cue_block < Program.n_blocks source)
                decisions,
              drops ))
      in
      (* The profile stream (possibly spill-backed) is not needed past
         cue selection: release it — and unlink its spill file — now. *)
      Simulator.Recording.close profiled;
      Obs.Metric.add m.Metrics.cue_no_candidate drops.Cue_block.no_candidate;
      Obs.Metric.add m.Metrics.cue_below_support drops.Cue_block.below_support;
      Obs.Metric.add m.Metrics.cue_below_threshold drops.Cue_block.below_threshold;
      Obs.Metric.add m.Metrics.cue_selected drops.Cue_block.selected;
      Obs.Metric.add m.Metrics.cue_decisions (List.length decisions);
      List.iter
        (fun (d : Cue_block.decision) ->
          Obs.Metric.observe m.Metrics.cue_probability d.Cue_block.probability)
        decisions;
      (* Step 3: link-time injection, then (in safe-only mode) the
         static stripper, then the optional lint gate. *)
      stage obs "inject" (fun () ->
          let instrumented, _remap, injection =
            Injector.inject ~mode:o.Options.mode ~skip_jit:o.Options.skip_jit
              ~max_hints_per_block:o.Options.max_hints_per_block ~program:source ~decisions ()
          in
          let instrumented, injection, stripped =
            match level with
            | Degrade.Safe_only -> strip_unsafe ~config instrumented injection
            | Degrade.Full | Degrade.Hints_off -> (instrumented, injection, 0)
          in
          let lint =
            if o.Options.verify then
              Some
                (Lint.check_program ~geometry:config.Config.l1i
                   ~provenance:(provenance_of_stats injection) ~exec_counts ~obs instrumented)
            else None
          in
          Obs.Metric.add m.Metrics.inject_hints injection.Injector.injected;
          Obs.Metric.add m.Metrics.inject_stripped stripped;
          Obs.Metric.add m.Metrics.inject_skipped_jit injection.Injector.skipped_jit;
          Obs.Metric.add m.Metrics.inject_skipped_cap injection.Injector.skipped_cap;
          Obs.Metric.add m.Metrics.inject_blocks_touched injection.Injector.blocks_touched;
          (match lint with
          | None -> ()
          | Some s ->
            Obs.Metric.add m.Metrics.lint_errors s.Lint.errors;
            Obs.Metric.add m.Metrics.lint_warnings s.Lint.warnings;
            Obs.Metric.add m.Metrics.lint_infos s.Lint.infos;
            Obs.Metric.add m.Metrics.lint_proved_safe_hints (Lint.proved_safe s.Lint.proofs);
            Obs.Metric.add m.Metrics.lint_proved_harmful_hints
              s.Lint.proofs.Lint.proved_harmful;
            Obs.Metric.add m.Metrics.lint_disagreements s.Lint.proofs.Lint.disagreements;
            (match s.Lint.abstract with
            | None -> ()
            | Some a ->
              Obs.Metric.add m.Metrics.lint_must_hit_sites a.Abs_cache.must_hit_sites;
              Obs.Metric.add m.Metrics.lint_always_miss_sites a.Abs_cache.always_miss_sites;
              Obs.Metric.add m.Metrics.lint_first_miss_lines a.Abs_cache.first_miss_lines;
              Obs.Metric.add m.Metrics.lint_persistent_sets a.Abs_cache.persistent_sets;
              (match a.Abs_cache.bounds with
              | None -> ()
              | Some (b : Abs_cache.bounds) ->
                Obs.Metric.set m.Metrics.lint_mpki_lower b.Abs_cache.mpki_lower;
                Obs.Metric.set m.Metrics.lint_mpki_upper b.Abs_cache.mpki_upper);
              (match a.Abs_cache.min_geometry with
              | None -> ()
              | Some (mg : Abs_cache.min_geometry) ->
                Obs.Metric.set m.Metrics.lint_min_ways (Float.of_int mg.Abs_cache.min_ways))));
          ( instrumented,
            {
              threshold = o.Options.threshold;
              n_windows = Array.length windows;
              n_decisions = List.length decisions;
              drops;
              injection;
              lint;
              degrade = degrade_record ~stripped;
            } ))
  in
  let evaluation =
    match o.Options.eval with
    | None -> None
    | Some (e : Eval.t) ->
      Some
        (stage obs "simulate" (fun () ->
             let eval recording =
               eval_core ~obs ~m ~backing:o.Options.backing ~config ~warmup:e.Eval.warmup
                 ~original:source ~instrumented ~trace:e.Eval.trace ~recording
                 ~policy:e.Eval.policy ~mode:(belady_mode_of prefetch) ()
             in
             match e.Eval.recording with
             | Some recording -> eval recording
             | None ->
               (* Hints leave the front end alone, so the instrumented
                  binary's recording is the original's. *)
               let recording =
                 Simulator.record ~config ~backing:o.Options.backing ~program:instrumented
                   ~trace:e.Eval.trace
                   ~prefetcher:(prefetcher_of ~config prefetch)
                   ()
               in
               Fun.protect
                 ~finally:(fun () -> Simulator.Recording.close recording)
                 (fun () -> eval recording)))
  in
  { program = instrumented; analysis; evaluation; obs; metrics = Obs.Run.snapshot obs }
