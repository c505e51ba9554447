(* Every metric the benchmark prints, with its unit: the lists
   BENCHMARK.json names (selftest.py checks that the two agree). *)

(* Printed by every untraced run.  The operation behind [op_p50_ms] and
   the instructions behind [minstr_per_s] are each workload's own; see
   README.md. *)
let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MiB"); ("op_p50_ms", "ms"); ("minstr_per_s", "Minstr/s") ]

(* The sweep's policies: the ten registry entries at this commit, named
   here so the workload stays fixed when the registry grows. *)
let policies =
  [
    "lru"; "ghrp"; "srrip"; "drrip"; "ship"; "hawkeye"; "trrip"; "ehc-hawkeye"; "ship-sb"; "random";
  ]

(* Printed by every traced run.  A layer the workload does not call
   reads 0. *)
let per_layer =
  [
    ("workloads.generate_s", "s");
    ("workloads.execute_s", "s");
    ("workloads.blocks", "count");
    ("trace.encode_s", "s");
    ("trace.decode_s", "s");
    ("trace.blocks", "count");
    ("trace.salvage", "frac");
    ("cpu.record_s", "s");
    ("cpu.accesses", "count");
    ("cpu.simulate_s", "s");
  ]
  @ List.map (fun p -> ("cpu.simulate_s." ^ p, "s")) policies
  @ List.map (fun p -> ("cpu.maccesses_per_s." ^ p, "Maccess/s")) policies
  @ [
      ("cpu.ripple_gain_pct", "%");
      ("cpu.alloc_mwords", "Mword");
      ("cache.belady_s", "s");
      ("cache.oracle_s", "s");
      ("cache.mpki.lru", "MPKI");
      ("cache.mpki.ripple", "MPKI");
      ("core.cue_select_s", "s");
      ("core.inject_s", "s");
      ("core.windows", "count");
      ("core.selected_frac", "frac");
      ("core.decisions", "count");
      ("core.hints", "count");
      ("core.hint_accuracy", "frac");
      ("core.hint_coverage", "frac");
      ("core.alloc_mwords", "Mword");
      ("analysis.lint_s", "s");
      ("analysis.structural_s", "s");
      ("analysis.abstract_s", "s");
      ("analysis.classify_s", "s");
      ("analysis.prove_s", "s");
      ("analysis.sites", "count");
      ("analysis.proved_safe_frac", "frac");
      ("analysis.fixpoint_iterations", "count");
      ("analysis.alloc_mwords", "Mword");
      ("serve.chunk_s", "s");
      ("serve.journal_s", "s");
      ("serve.flush_full_s", "s");
      ("serve.flush_safe_s", "s");
      ("serve.snapshot_s", "s");
      ("serve.snapshot_bytes", "bytes");
      ("serve.safe_only_frac", "frac");
      ("serve.scrape_ms", "ms");
      ("serve.scrape_bytes", "bytes");
      ("serve.captures", "count");
      ("serve.capture_p50_ms", "ms");
      ("serve.capture_p90_ms", "ms");
      ("serve.chunk_p50_ms", "ms");
      ("exp.cells", "count");
      ("exp.cell_p50_s", "s");
      ("exp.busy_frac", "frac");
      ("tracing.untraced_s", "s");
      ("tracing.traced_s", "s");
    ]

(* The recorder's values for every per-layer name a workload did not
   compute itself in [explicit]. *)
let traced (r : Measure.Recorder.t) explicit =
  explicit
  @ List.filter_map
      (fun (name, _) ->
        match Hashtbl.find_opt r.Measure.Recorder.values name with
        | Some v when not (List.mem_assoc name explicit) -> Some (name, v)
        | _ -> None)
      per_layer

(* What one run of a workload hands back to [Perfbench] for printing. *)
type result = {
  metrics : (string * float) list;  (** by catalogue name; absent names print 0 *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** named output checks, in the order run *)
  digest : string;  (** FNV-1a 64 over the workload's deterministic outputs *)
  samples : (string * int) list;  (** sample counts behind medians and percentiles *)
  ops_ms : float list;  (** every operation's latency in order: the samples of [op_p50_ms] *)
}

(* A run's output checks and operation counts.  A failed check counts as
   a failed operation. *)
type tally = {
  mutable checks_rev : (string * bool) list;
  mutable failed_ops : int;
  mutable ops : int;
}

let tally () = { checks_rev = []; failed_ops = 0; ops = 0 }

let check t name ok =
  t.checks_rev <- (name, ok) :: t.checks_rev;
  if not ok then t.failed_ops <- t.failed_ops + 1

let attempt t = t.ops <- t.ops + 1

let result t ~metrics ~digest ~samples ~ops_ms =
  {
    metrics;
    attempted = t.ops;
    failed = t.failed_ops;
    checks = List.rev t.checks_rev;
    digest;
    samples;
    ops_ms;
  }
