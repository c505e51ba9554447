(** Front-end prefetcher interface.

    The trace-driven simulator calls [on_block] once per executed basic
    block — the prefetcher trains on the observed control flow and
    returns the prefetch accesses it issues ahead of the block's demand
    fetch — and [on_demand] after each demand reference, letting reactive
    schemes (next-line) chase misses.  Prefetches are modelled as
    instantaneous fills: a correct prefetch fully hides the miss, an
    incorrect one pollutes the cache, which is precisely the eviction
    problem Ripple targets (§II-C). *)

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
  on_demand : line:Addr.line -> missed:bool -> Access.packed list;
      (** Called after each demand access with its hit/miss outcome. *)
  save : unit -> unit -> unit;
      (** [save ()] captures a deep copy of the prefetcher's training
          state (history, BTB, RAS, queues); the thunk restores it.
          Checkpointed warm-up rewinds to it before each sampled
          window. *)
}

val none : t
(** The no-prefetching baseline. *)
