(** Offline optimal replacement: Belady's MIN and the prefetch-aware
    Demand-MIN revision (Jain & Lin 2018, as revised by the Ripple paper).

    Given the complete access stream, MIN evicts the resident line whose
    next reference (of any kind) lies farthest in the future.  Demand-MIN
    refines this under prefetching: a line whose next reference is a
    prefetch can be evicted for free — the prefetch will re-fetch it
    without a demand miss — so Demand-MIN first evicts the line
    {e prefetched} farthest in the future (counting never-referenced-again
    lines as prefetched at infinity), and only if no resident line's next
    reference is a prefetch does it fall back to the line {e demanded}
    farthest in the future.

    The simulation also records every eviction together with the victim's
    last-use position: these [(last_use, at)] intervals are exactly the
    {e eviction windows} of Ripple's §III-B analysis. *)

module Addr := Ripple_isa.Addr

type mode = Min | Demand_min

type next_ref = Next_demand | Next_prefetch | Never
(** What happens to a victim line after its eviction: re-demanded,
    re-prefetched first (Demand-MIN's "free" evictions), or never seen
    again. *)

type eviction = {
  at : int;  (** index of the access whose fill triggered the eviction *)
  line : Addr.line;  (** the victim *)
  set : int;
  last_use : int;  (** index of the victim's most recent access *)
  next : next_ref;
}

type result = {
  mode : mode;
  demand_accesses : int;
  demand_misses : int;
  demand_misses_cold : int;
  prefetch_accesses : int;
  prefetch_fills : int;
  n_evictions : int;
      (** total evictions over the whole replay — always counted, even
          when the boxed records were not kept *)
  evictions : eviction array;
      (** in increasing [at] order; empty when [record_evictions] was
          [false] *)
  fills : int array;
      (** stream indices of every filling access (demand misses and
          prefetch fills), increasing — empty unless [record_fills] was
          set; a recorded replay lets {!Ripple_cpu.Simulator.oracle}
          drive the memory hierarchy in exact stream order without
          re-running the Belady pass. *)
}

type tables
(** Precomputed next-use tables for one stream: 2 words per access, the
    oracle's entire O(n) working set.  Prepared once, they are read-only,
    so several replays over the same stream can share them, and with a
    [Spill] backing they live in unlinked mmap scratch instead of the
    heap. *)

val prepare : ?backing:Access_stream.backing -> Access_stream.t -> tables
val close_tables : tables -> unit

val simulate :
  ?tables:tables ->
  ?record_fills:bool ->
  ?record_evictions:bool ->
  ?on_fill:(index:int -> Access.packed -> unit) ->
  ?count_from:int ->
  Geometry.t ->
  mode:mode ->
  Access_stream.t ->
  result
(** Full offline replay over a packed {!Access_stream}.  O(n·ways) time,
    O(n) space for the next-use tables; the backward next-use pass and
    the forward replay both iterate the stream without boxing a single
    access.  [on_fill] is invoked for every access that misses and fills
    (demand misses and prefetch fills), in stream order — the timing
    model uses it to drive the L2/L3 hierarchy under the oracle
    policies.  [count_from] restricts the counters (not the simulation,
    and not the recorded evictions) to accesses at or beyond that stream
    index — steady-state measurement after a cache warm-up.

    [tables] reuses next-use tables from {!prepare} (they are left open);
    without it the tables are built and released internally.
    [record_fills] captures the fill indices in [result.fills].
    [record_evictions] (default [true]) keeps the boxed eviction
    records; callers that only need counters and fills — the oracle
    timing replay — pass [false] so the replay's heap stays O(1) in the
    stream length ([result.n_evictions] still carries the tally). *)

val mpki : result -> instructions:int -> float
