(** The static verifier's front door: run every layer, aggregate
    findings, render them for humans and machines.

    Four layers (DESIGN.md "Static verification" and "Abstract cache
    analysis"):

    + structural CFG checks ({!Cfg.check}) — [Error]s here gate the
      rest: semantic passes over a graph with dangling edges or bogus
      layout would only add noise, so they are skipped;
    + the dominator tree ({!Dominance}) — consumed by the hint
      classification (redundancy witnesses);
    + hint classification ({!Invalidation_check}) — every injected
      hint is classified safe/harmful/redundant;
    + abstract cache interpretation ({!Abs_cache}) — must/may/
      persistence facts, a proof verdict per hint, static MPKI bounds,
      and a cross-check: whenever the path-search classification and
      the abstract verdict contradict each other
      ({!Invalidation_check.disagreement}), a [Classifier_disagreement]
      [Error] fires — disagreement means one analysis is unsound, so
      nothing downstream should be trusted.

    Severity mapping for hint classifications: a harmful {e
    invalidation} with no profile {!provenance} is an [Error] — nothing
    justifies a hint that statically converts hits to misses.  With
    provenance it is a [Warning]: a statically cheap path back to the
    line is exactly the loop-carried-but-profile-dead reuse Ripple
    deliberately targets, so quoted profile evidence (P over N windows)
    downgrades the finding to an audit item.  A harmful {e demotion} is
    always a [Warning] (the line survives until a genuine conflict
    arrives); redundant hints and hints whose operand is outside the
    program's text are [Warning]s (pure overhead).  Safe hints produce
    no finding — only the summary counters. *)

module Addr := Ripple_isa.Addr
module Basic_block := Ripple_isa.Basic_block
module Program := Ripple_isa.Program
module Geometry := Ripple_cache.Geometry

(** Why a hint exists: the injector's per-decision evidence
    (conditional probability and covered-window support), quoted in
    findings so a flagged hint can be traced back to its profile
    justification. *)
type provenance = {
  block : int;
  line : Addr.line;
  probability : float;
  windows : int;
}

type hint_counts = {
  total : int;
  safe_dead : int;
  safe_pressure : int;
  harmful : int;
  redundant : int;
}

(** Abstract-proof verdict counters over all hint sites (zero when the
    structural gate fired). *)
type proof_counts = {
  proved_noop : int;
  proved_dead : int;
  proved_persistent : int;
  proved_pressure : int;
  proved_harmful : int;
  unproved : int;
  disagreements : int;  (** cross-check findings fired *)
}

val proved_safe : proof_counts -> int
(** [proved_dead + proved_persistent + proved_pressure] — the sites
    {!Abs_cache.proved_safe} accepts. *)

type summary = {
  findings : Finding.t list;  (** severity-descending, then block order *)
  errors : int;
  warnings : int;
  infos : int;
  hints : hint_counts;
  proofs : proof_counts;
  abstract : Abs_cache.summary option;
      (** [None] when the structural gate suppressed the semantic
          layers *)
  structural_gate : bool;
      (** [true] when structural errors suppressed the semantic layers *)
}

val check_blocks :
  ?geometry:Geometry.t ->
  ?aligned:bool array ->
  ?provenance:provenance list ->
  ?exec_counts:int array ->
  ?obs:Ripple_obs.Run.t ->
  entry:int ->
  Basic_block.t array ->
  summary
(** Lint a raw block array ([geometry] defaults to {!Geometry.l1i}).
    [exec_counts] (per-block execution counts from a profile) enables
    the static MPKI bounds and minimal-geometry estimate in
    [abstract]; [obs] records one child span per layer ([structural],
    [abstract], [hints]) on the caller's open span.  Exposed separately
    from {!check_program} so corrupted inputs that
    {!Ripple_isa.Program.v} would refuse can be probed in tests. *)

val check_program :
  ?geometry:Geometry.t ->
  ?provenance:provenance list ->
  ?exec_counts:int array ->
  ?obs:Ripple_obs.Run.t ->
  Program.t ->
  summary
(** {!check_blocks} over a laid-out program, with its entry and
    alignment requests. *)

val max_severity : summary -> Finding.severity option

val exit_code : summary -> int
(** The CLI contract: [0] — no findings above [Info]; [1] — warnings;
    [2] — errors. *)

val to_json : summary -> Ripple_util.Json.t
(** Deterministic: [{"errors", "warnings", "infos", "hints": {...},
    "proofs": {...}, "structural_gate", "abstract": {...}|null,
    "findings": [...]}]. *)

val pp : Format.formatter -> summary -> unit
(** Human rendering: one line per [Warning]/[Error] finding plus a count
    trailer; [Info] findings appear only in the trailer (and in
    {!to_json}). *)
