(** End-to-end Ripple (Fig. 4): profile → eviction analysis → injection →
    instrumented binary, plus the instrumented-run evaluation that yields
    the paper's metrics — all behind the single {!run} façade.

    Profiling goes through the PT-style encoder/decoder round trip — the
    analysis only ever sees what hardware tracing can reconstruct.  The
    ideal-policy replay uses MIN when no prefetcher is configured and
    prefetch-aware Demand-MIN otherwise, over the access stream the
    configured prefetcher actually produces.

    Every run is observable: the six stages (decode → profile → belady →
    cue-select → inject → simulate) open spans in a {!Ripple_obs.Run.t},
    and each stage's counters land in its registry.  The returned
    {!outcome} carries a deterministic {!Ripple_obs.Snapshot.t} of it. *)

module Program := Ripple_isa.Program
module Policy := Ripple_cache.Policy
module Belady := Ripple_cache.Belady
module Prefetcher := Ripple_prefetch.Prefetcher
module Config := Ripple_cpu.Config
module Simulator := Ripple_cpu.Simulator
module Obs := Ripple_obs

type prefetch = No_prefetch | Nlp | Fdip

val prefetch_name : prefetch -> string
val prefetcher_of : ?config:Config.t -> prefetch -> Program.t -> Prefetcher.t
val belady_mode_of : prefetch -> Belady.mode

(** The degradation ladder: how much of a profile's authority survives
    contact with the binary it is about to instrument.  [Full] applies
    every decision; [Safe_only] strips the hints the path-search
    classifier ({!Ripple_analysis.Invalidation_check.classify}) flags
    [Harmful] or [Redundant] and ships everything else; [Hints_off]
    ships the binary untouched, so behaviour is exactly the baseline
    replacement policy.  The ladder only engages when
    {!Options.t.degrade} is set — other callers get [Full]
    unconditionally. *)
module Degrade : sig
  type level = Full | Safe_only | Hints_off

  val level_name : level -> string
  (** ["full"], ["safe-only"], ["off"]. *)

  val code : level -> int
  (** The rung as a number: [0] full, [1] safe-only, [2] off — the
      ladder gauges' value and the serve snapshot's [level] field. *)

  val of_code : int -> level
  (** Inverse of {!code}; any other number reads as [Hints_off]. *)

  type t = {
    level : level;
    fingerprint_ok : bool;  (** profile layout matches the target binary *)
    salvage : float;  (** fraction of the profile capture recovered *)
    drift : float;  (** illegal-transition fraction vs. the target CFG *)
    stripped : int;  (** hints removed by the safe-only filter *)
  }

  val full : t
  (** The no-degradation record legacy paths report. *)

  val to_json : t -> Ripple_util.Json.t
end

type analysis = {
  threshold : float;
  n_windows : int;  (** ideal-policy eviction windows in the profile *)
  n_decisions : int;  (** deduplicated (cue, victim) injections *)
  drops : Cue_block.drops;  (** per-reason window drop accounting *)
  injection : Injector.stats;
  lint : Ripple_analysis.Lint.summary option;
      (** static-verifier report on the instrumented binary; [Some] iff
          {!Options.t.verify} was set *)
  degrade : Degrade.t;  (** which rung of the ladder was applied, and why *)
}

(** An evaluation request: simulate the instrumented binary on [trace]
    under [policy], counting only past the [warmup] trace index.
    Attached to {!Options.t.eval} to make {!run} produce an
    {!outcome.evaluation}. *)
module Eval : sig
  type t = {
    trace : Simulator.Trace.t;
    policy : Policy.factory;
    warmup : int;
    recording : Simulator.Recording.t option;
        (** the front end's recording of [trace] (same config and
            prefetcher), borrowed: the evaluation replays it and leaves
            it open.  [None] records one for this run and closes it. *)
  }

  val v :
    ?warmup:int ->
    ?recording:Simulator.Recording.t ->
    trace:int array ->
    policy:Policy.factory ->
    unit ->
    t
  (** [warmup] defaults to 0, [recording] to [None].  Build the record
      directly to evaluate a spill-backed ({!Ripple_util.Int_stream})
      trace. *)
end

(** Instrumentation knobs, gathered into one plain record.  Build a
    variant with a record update over {!Options.default}:

    {[ Pipeline.run
         { Pipeline.Options.default with threshold = 0.65; pt_roundtrip = false }
         ~source (Trace profile_trace) ]}

    There are deliberately no [with_*] combinators — OCaml's [{ r with
    field = v }] is the update idiom, and a flat record keeps every
    option greppable and exhaustively matchable.

    Note [t] contains a closure when [eval] is set: compare options
    structurally by field, never with polymorphic equality. *)
module Options : sig
  type t = {
    config : Config.t;
    threshold : float;
        (** invalidation threshold (§III-C); 0.5 is the centre of the
            paper's best 45–65 % band *)
    mode : Injector.mode;  (** invalidate (paper default) or demote *)
    skip_jit : bool;  (** drop decisions whose cue block is JIT code *)
    max_hints_per_block : int;
    scan_limit : int;  (** cue-candidate bound per eviction window *)
    min_support : int;  (** min windows a (cue, victim) pair must cover *)
    exclude_prefetch_covered : bool;
        (** skip windows whose victim's next reference is a prefetch — a
            conservative variant for miss-triggered prefetchers
            (evaluated by the ablation bench) *)
    pt_roundtrip : bool;
        (** pass the profile through the PT codec; disable for stitched
            LBR samples ({!Ripple_trace.Lbr}), which are not a single
            legal control-flow path *)
    verify : bool;
        (** run the static verifier ({!Ripple_analysis.Lint}) over the
            instrumented binary and attach its summary to the analysis
            record — the lint gate that catches harmful or redundant
            injections before a sweep spends hours on them *)
    degrade : bool;
        (** engage the degradation ladder ({!Degrade}): step down to
            safe-only hints or no hints when the profile's fingerprint,
            salvage ratio or drift says it no longer describes the
            target binary.  The drift thresholds are fixed: above 2 %
            illegal transitions the run drops to safe-only, above 15 %
            to [Hints_off].  Off by default: stitched LBR profiles,
            which are deliberately not a legal path, keep full-trust
            behaviour *)
    min_salvage : float;
        (** below this salvage ratio the profile is discarded outright
            ([Hints_off]); default 0.5 *)
    prefetch : prefetch;  (** front-end prefetcher; default [Fdip] *)
    eval : Eval.t option;
        (** when set, {!run} simulates the instrumented binary and fills
            {!outcome.evaluation}; default [None] *)
    backing : Ripple_cache.Access_stream.backing;
        (** where recorded access streams (and the Belady working
            tables) live: [Heap] (default) or [Spill], which writes
            through to unlinked mmap files so the analysis heap stays
            O(windows) even on 100 M-block profiles.  Results are
            byte-identical across backings *)
  }

  val default : t
end

type profile = {
  trace : int array;  (** decoded block sequence *)
  source : Program.t;  (** the layout the profile was collected on *)
  salvage : float;  (** fraction of the capture recovered (1.0 = clean) *)
  pt_errors : int;  (** decode errors survived to produce [trace] *)
}
(** A profile artifact: the decoded trace plus everything the
    degradation ladder needs to decide how far to trust it.  [source]
    carries the layout fingerprint implicitly — hint line operands are
    computed on [source] and only valid on binaries with the same
    fingerprint. *)

type input =
  | Trace of int array
      (** an already-decoded block trace of the source binary itself;
          round-trips through the PT codec unless
          {!Options.t.pt_roundtrip} is off *)
  | Pt_bytes of bytes  (** a raw PT-style capture, decoded recoveringly *)
  | Profile of profile
      (** a pre-built artifact, possibly from a different layout — the
          decoupled-profile path the degradation ladder judges *)

val profile_of : source:Program.t -> input -> profile
(** Profile construction over the same [input] variant {!run} takes:
    [Trace t] wraps an already-decoded trace (salvage 1.0, no errors);
    [Pt_bytes data] is a recovering decode
    ({!Ripple_trace.Pt.decode_result}) of a possibly corrupt stream —
    never raises, the salvage ratio and error count land in the artifact
    for the ladder to judge; [Profile p] is the identity.  For a partial
    capture whose salvage is known out of band, build the (public)
    {!profile} record directly. *)

type evaluation = {
  result : Simulator.result;  (** performance of the instrumented run *)
  coverage : float;  (** §III-C replacement-coverage *)
  accuracy : float;  (** §III-C replacement-accuracy *)
  hint_execs : int;  (** dynamic hint executions *)
  static_overhead : float;  (** extra static instructions, fraction *)
  dynamic_overhead : float;  (** extra dynamic instructions, fraction *)
  sample : unit option;
      (** always [None]; kept because perfbench's [wl_verify.ml] builds
          this record *)
}

val evaluation_to_json : evaluation -> Ripple_util.Json.t
(** Machine-readable form of an evaluation: the simulator result
    ({!Ripple_cpu.Simulator.result_to_json}) plus the Ripple metrics.
    Deterministic; the JSONL payload of Ripple cells in sweeps. *)

type outcome = {
  program : Program.t;  (** the instrumented binary *)
  analysis : analysis;
  evaluation : evaluation option;  (** [Some] iff {!Options.t.eval} was *)
  obs : Obs.Run.t;
      (** the live observability context the run recorded into — spans
          carry wall-clock durations, so render it ({!Ripple_obs.Export})
          but never diff it *)
  metrics : Obs.Snapshot.t;
      (** deterministic view of [obs]: metric values plus span structure,
          no durations — byte-identical across pool sizes and reruns *)
}

val register_metrics : Obs.Registry.t -> unit
(** Registers the pipeline's complete metric vocabulary (including the
    simulator family) in [reg], find-or-create.  {!run} does this
    implicitly; long-lived consumers that scrape a registry before any
    run has happened (the [ripple-sim serve] daemon) call it up front so
    every snapshot carries the full schema [docs/metrics.schema] pins. *)

val run : ?obs:Obs.Run.t -> Options.t -> source:Program.t -> input -> outcome
(** The façade: profile acquisition → eviction analysis → cue-block
    selection → link-time injection — and, per {!Options.t.eval},
    evaluation — as one call at {!Options.t.threshold}.  [source] is the
    binary being shipped; [input] is where the profile comes from.
    [obs] attaches the run to an existing observability context (e.g. a
    per-cell runner span); a fresh one is created otherwise.
    Per-application threshold selection (§III-C) is one run per
    candidate: the bench submits one Ripple spec per threshold. *)
