(** Classification of injected invalidation/demotion hints (layer 3).

    A hint is judged by what can happen to its victim line on the
    static flow graph {e after} the hint executes (hints sit at the end
    of their block):

    - {b Redundant} — the same line is already hint-dead on every path
      reaching this hint, with no intervening reference, and an earlier
      hint that {e dominates} this one witnesses it (including the
      degenerate case of a duplicate hint in the same block).  The hint
      can only ever find the line absent: pure overhead.
    - {b Harmful} — some path re-references the line while fewer than
      [ways] distinct other lines of the same cache set have been
      touched since the hint.  No replacement policy — the ideal one
      included — would have evicted the line that early, so the hint
      converts a likely hit into a miss ([reuse_block] and the conflict
      count witness the path).
    - {b Safe} — neither of the above, split by reason: [Safe_dead]
      when no path re-references the line before another hint on it,
      [Safe_pressure] when every path to a re-reference first touches
      at least [ways] distinct same-set lines — by then the victim is
      past its ideal eviction point and would have been evicted
      anyway.

    The conflict count along a path is explored lowest-first and
    memoised per block, so the search visits each block at most [ways]
    times; paths are pruned once they saturate the set's associativity
    or cross another hint on the same line.

    Each distinct hinted line gets two walks, both stopped at the
    blocks that hint it.  Redundancy's all-paths fact is the complement
    of one forward may-reachability: from the roots and from just after
    every unhinted block that references the line, ending once every
    hinting block has been reached (only those are ever asked).  The
    dead/pressure split is one backward walk from the referencing
    blocks over the predecessors, never entering a hinting block unless
    it references the line too (a block's code runs before its hints);
    the line is live after a hint iff the walk reached a successor of
    its block.  The successor, predecessor, line, line →
    referencing-blocks and line → hinting-blocks tables are built once
    per {!classify} call, and not at all for a program without hints;
    the walks, the harmful search and the dominating-witness lookup
    read the same tables and share one generation-stamped scratch
    array, so a call allocates nothing per hint beyond its search
    queue.

    Return edges are {e not} modelled (see {!Cfg}): reuse that flows
    through a function return is governed by the profile's conditional
    probability, which is exactly the evidence the injector already
    demanded.  What this pass catches statically is the blunder the
    profile cannot excuse — invalidating a line the cue block's own
    forward slice is still about to execute. *)

module Addr := Ripple_isa.Addr
module Basic_block := Ripple_isa.Basic_block
module Geometry := Ripple_cache.Geometry

type site = {
  block : int;  (** block carrying the hint *)
  index : int;  (** position in the block's hint array *)
  line : Addr.line;  (** victim line *)
  demote : bool;  (** [Demote] rather than [Invalidate] *)
}

type classification =
  | Safe_dead
  | Safe_pressure
  | Harmful of { reuse_block : int; conflicts : int }
  | Redundant of { earlier : int }

val classification_name : classification -> string
(** ["safe_dead"], ["safe_pressure"], ["harmful"], ["redundant"]. *)

val classify : geometry:Geometry.t -> entry:int -> Basic_block.t array -> (site * classification) list
(** All hint sites in block order (hint order within a block), each with
    its classification.  [geometry] supplies the set mapping and
    associativity of the target I-cache.  Requires a structurally valid
    program (run {!Cfg.check} first). *)

val disagreement : classification -> Abs_cache.verdict -> bool
(** The cross-check tripwire.  Two pairs count as disagreement:
    [Proved_dead]/[Proved_pressure] against a [Harmful] path witness —
    impossible by construction (the proofs quantify over a {e
    superset} of the paths the search explores), so firing means one
    side has a bug — and [Proved_harmful] against
    [Safe_dead]/[Safe_pressure] on an invalidation, which means the
    path search blessed a hint that provably costs a miss on a real
    execution path (reuse flowing through a return edge it chose not
    to model).  [Proved_persistent] and [Proved_noop] never disagree:
    they reason about residency and victim consultation, which the
    path search does not model at all. *)
