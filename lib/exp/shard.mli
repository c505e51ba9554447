(** Per-set sharded Belady replay.

    Cache sets are independent under ideal replacement: an access to set
    [s] never changes the state of set [t].  So the replay partitions
    the set index space into contiguous ranges, replays each range as
    its own pool job over the shared (read-only) lookahead tables, and
    reassembles the full result with {!Ripple_cache.Belady.merge} —
    byte-identical to the unsharded replay at any shard count, because
    every eviction and fill carries its global stream position.

    Sharding parallelizes {e within} one (large) cell; it composes with
    the sweep-level pool ({!Runner.run}), but running both wide at once
    oversubscribes the machine — shard big single cells, pool small
    ones. *)

module Config := Ripple_cpu.Config
module Simulator := Ripple_cpu.Simulator
module Belady := Ripple_cache.Belady
module Access_stream := Ripple_cache.Access_stream

val ranges : sets:int -> shards:int -> (int * int) array
(** The contiguous [\[lo, hi)] set ranges [shards] shards cover
    ([shards] clamped to [1 .. sets]); exposed for tests. *)

val oracle :
  ?config:Config.t ->
  ?shards:int ->
  ?backing:Ripple_util.Int_stream.backing ->
  ?warmup:int ->
  stream:Access_stream.t * int array ->
  mode:Belady.mode ->
  program:Ripple_isa.Program.t ->
  trace:int array ->
  prefetcher:(Ripple_isa.Program.t -> Ripple_prefetch.Prefetcher.t) ->
  unit ->
  Simulator.result
(** {!Ripple_cpu.Simulator.oracle} with the Belady pass sharded: replay
    per set range, merge, then replay the recorded fill sequence through
    the L2/L3 hierarchy — the same result the unsharded oracle
    produces, at any shard count. *)
