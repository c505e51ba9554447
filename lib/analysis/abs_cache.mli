(** Abstract interpretation of the I-cache (layer 4): must, may and
    persistence domains over the {e closed} control-flow graph, solved
    one cache set at a time with {!Fixpoint}.

    {2 The closed graph}

    {!Cfg.flow_successors} deliberately leaves [Return] and [Halt] as
    sinks; concretely, execution resumes at some call's [return_to] (or
    at the entry/dispatcher block when the stack is empty or the
    program halts).  Sound residency proofs must cover those
    resumptions, so this pass adds context-insensitive closure edges:
    every [Return] block gains an edge to {e every} [return_to] site in
    the program and to the entry block, and every [Halt] block gains an
    edge to the entry block.  Over-approximating the path set keeps
    every domain sound — must facts only shrink, may facts only grow.

    {2 The domains}

    - {b must} (policy-independent): lines guaranteed resident under
      {e every} demand-fetch replacement policy.  Relies only on two
      structural facts of {!Ripple_cache.Cache}: hits never evict, and
      fills take a cold way before consulting the policy victim — so a
      set whose reachable working set fits its associativity
      ({e persistent} set) never evicts at all.
    - {b must-LRU} (age vectors): the classical per-set age-bound
      lattice.  A line with age bound [< ways] is guaranteed resident
      under LRU specifically.
    - {b may}: lines possibly resident on {e some} path; a line absent
      from the may set is a guaranteed (cold) miss.

    All facts assume a cold cache at the entry block and {e no
    prefetcher} — a prefetch fill can evict a must line and install a
    may-absent one.  Must facts also hold mid-trace (residency proofs
    only get easier on a warm cache); always-miss and first-miss-only
    facts are cold-start, demand-fetch claims.

    Hints are part of the analyzed program: [Invalidate l] removes [l]
    from every domain; [Demote l] leaves residency alone (it only
    reorders the victim preference; in a persistent set the victim is
    never consulted) but drops the LRU age bound of [l] to [ways - 1].

    {2 Set slices}

    Lines in different cache sets never interact, so each set is
    solved on its own {e slice} of the closed graph: the entry, the
    resume hub and the reachable blocks whose lines or hints map to the
    set, with an edge wherever a closed-graph path joins two of them
    through blocks of other sets only.  Those blocks leave the set's
    state alone, so the least fixpoint at every slice node equals the
    whole graph's.  The per-hint passes run on the hinted line's slice
    too; a slice node {e leaks} when such a path from it can stop at a
    block without successors or loop forever among other sets' blocks,
    which the first-event pass counts as a failed path.

    {2 Termination}

    Every domain is a finite join-semilattice — bit vectors under
    intersection/union, age vectors under pointwise max capped at
    [ways] — and every transfer function is monotone, so the
    {!Fixpoint} iteration converges without widening.  The auxiliary
    hint passes (guaranteed re-reference, guaranteed conflicts) are
    Kleene iterations over finite lattices with the fixpoint side
    (least resp. greatest) chosen to match their inductive
    resp. coinductive claim. *)

module Addr := Ripple_isa.Addr
module Basic_block := Ripple_isa.Basic_block
module Geometry := Ripple_cache.Geometry

type t

val analyze : geometry:Geometry.t -> entry:int -> Basic_block.t array -> t
(** Run all three domains to their fixpoint.  Requires a structurally
    valid program (run {!Cfg.check} first). *)

(** {1 Per-site facts} *)

type site_fact = {
  index : int;  (** position in the block's {!Basic_block.lines} order *)
  line : Addr.line;
  must_hit : bool;  (** guaranteed hit under every demand-fetch policy *)
  must_hit_lru : bool;  (** guaranteed hit under LRU (implied by [must_hit]) *)
  always_miss : bool;  (** guaranteed miss: first touch on every path *)
}

val facts : t -> site_fact array array
(** Indexed by block id; one entry per line access in execution order.
    Blocks unreachable in the closed graph get an empty array (no
    claim is made about them). *)

val persistent : t -> set:int -> bool
(** The set's reachable working set fits its associativity: no fill in
    it ever consults the replacement policy, so nothing is ever
    evicted from it. *)

val first_miss_only : t -> Addr.line -> bool
(** The line lives in a persistent set and no reachable block carries
    an [Invalidate] hint on it: it misses at most once per run. *)

val solver_stats : t -> Fixpoint.stats
(** Summed over the per-set solves. *)

type slice_stats = {
  nodes : int;  (** slice nodes, summed over the cache sets *)
  edges : int;  (** slice edges, summed over the cache sets *)
  walked : int;
      (** other-set blocks the edge walks crossed, summed over every
          walk: the cost of building the slices *)
}

val slice_stats : t -> slice_stats
(** The size and building cost of the slices {!analyze} solved over. *)

(** {1 Hint proofs} *)

type verdict =
  | Proved_noop
      (** the line is may-absent at the hint (or the hint is
          unreachable): the hint can never change cache contents *)
  | Proved_dead
      (** no closed-graph path re-references the line after the hint
          without crossing another invalidation of it first: the
          hinted line itself can never miss again, and the freed way
          is refilled without evicting anyone (fills prefer cold and
          hinted ways) *)
  | Proved_persistent
      (** a demotion in a persistent set: the victim preference it
          expresses is never consulted *)
  | Proved_pressure
      (** every path to a re-reference first touches at least [ways]
          distinct same-set lines: under LRU the line would have been
          evicted anyway (LRU-grade, unlike the other proofs) *)
  | Proved_harmful
      (** the line is must-resident under every policy at the hint,
          and on every path the next same-set event is a re-reference
          of the line itself: the hint converts a guaranteed hit into
          a guaranteed miss under every demand-fetch policy *)
  | Unproved  (** none of the above could be established *)

val verdict_name : verdict -> string

val proved_safe : verdict -> bool
(** [Proved_dead], [Proved_persistent] or [Proved_pressure] — the
    verdicts that positively establish the hint cannot cost a miss.
    [Proved_noop] is deliberately excluded: a no-op is harmless but
    also useless, so safety filters drop it. *)

val prove : t -> block:int -> index:int -> verdict
(** Verdict for the hint at position [index] of [block]'s hint array.
    Raises [Invalid_argument] if there is no such hint. *)

(** {1 Static bounds} *)

type bounds = {
  instructions : int;
      (** [Σ exec_counts(b) · n_instrs(b)] — original (non-hint)
          instructions, the same denominator the simulator's MPKI
          uses *)
  lower_misses : int;
  upper_misses : int;
  mpki_lower : float;
  mpki_upper : float;
}

val bounds : t -> exec_counts:int array -> bounds option
(** Static demand-miss bounds for any execution with the given
    per-block execution counts, under every demand-fetch policy from a
    cold cache with no prefetcher: every site that is not a must hit
    counts toward the upper bound (collapsed to one miss per
    first-miss-only line), every always-miss site and every distinct
    executed line's cold miss counts toward the lower bound.  [None]
    when [exec_counts] does not cover the block array or no
    instructions execute. *)

type min_geometry = {
  coverage : float;  (** instruction-weight fraction the estimate covers *)
  dominant_blocks : int;
  dominant_lines : int;
  min_ways : int;
      (** smallest associativity (at the analyzed set count) for which
          every dominant line's set is persistent — the dominant
          working set then misses at most once per line *)
  min_size_bytes : int;
}

val min_geometry : t -> exec_counts:int array -> min_geometry option
(** Dominant-block minimal-geometry estimate: rank blocks by executed
    instruction weight, keep the smallest prefix covering 90% of it,
    and size the cache so that prefix's lines are fully persistent. *)

(** {1 Summary} *)

type summary = {
  blocks : int;  (** closed-reachable blocks *)
  sites : int;
  must_hit_sites : int;
  must_hit_lru_sites : int;
  always_miss_sites : int;
  persistent_sets : int;
  first_miss_lines : int;
  solver : Fixpoint.stats;
  bounds : bounds option;
  min_geometry : min_geometry option;
}

val summarize : ?exec_counts:int array -> t -> summary

val summary_to_json : summary -> Ripple_util.Json.t
(** Deterministic field order; [bounds]/[min_geometry] are [null] when
    absent. *)
