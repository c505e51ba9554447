(** Front-end prefetcher interface.

    The trace-driven simulator's front end calls [on_block] once per
    executed basic block — the prefetcher trains on the observed control
    flow and returns the prefetch accesses it issues ahead of the
    block's demand fetch — and [on_demand] after each demand reference,
    letting reactive schemes (next-line) chase the fetch stream.
    Prefetches are modelled as instantaneous fills: a correct prefetch
    fully hides the miss, an incorrect one pollutes the cache, which is
    precisely the eviction problem Ripple targets (§II-C).

    No hook sees the L1I the replacement policy manages, so the access
    sequence a prefetcher shapes is the same under every policy.  A
    prefetcher that learns from misses ([on_miss], RDIP) is told the
    demand misses of an LRU reference L1I the front end keeps beside
    it. *)

module Basic_block := Ripple_isa.Basic_block
module Addr := Ripple_isa.Addr
module Access := Ripple_cache.Access

type t = {
  name : string;
  on_block : Basic_block.t -> Access.packed list;
      (** Called in execution order; result is issued to the I-cache
          (as prefetches) before the block's own demand accesses.
          Packed ({!Access.packed}) so issuing costs one list cell per
          prefetch and nothing more. *)
  on_demand : line:Addr.line -> Access.packed list;
      (** Called after each demand access. *)
  on_miss : (Addr.line -> unit) option;
      (** Called, before [on_demand], with each demand line that missed
          in the front end's LRU reference L1I.  [None] for prefetchers
          that do not learn from misses; the front end then keeps no
          reference cache. *)
}

val none : t
(** The no-prefetching baseline. *)
