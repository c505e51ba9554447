(** Trace-driven performance simulation.

    Replays a decoded basic-block trace through a prefetcher, the L1
    I-cache under a chosen replacement policy, and the L2/L3 hierarchy,
    charging [cpi_base] per retired instruction plus the exposed latency
    of every L1I demand miss.  Injected Ripple hints execute at the end
    of their block (invalidating or demoting their target line in the
    L1I only).

    The simulator is two halves.  The {e front end} turns the trace into
    the L1I access sequence: per block, the prefetches that land, then
    the block's demand fetches.  No prefetcher reads the L1I under
    evaluation, so that sequence does not depend on the replacement
    policy.  The {e back end} charges the sequence to the L1I and the
    hierarchy and retires each block's hints after its last access.
    {!run_trace} streams the front end straight into the back end;
    {!record} keeps the sequence as a {!Recording.t} that {!replay}
    (any policy) and {!replay_oracle} (ideal replacement) consume
    without running the front end again.

    IPC is computed over {e original} instructions (hint instructions
    excluded from the numerator, though they cost cycles), so runs of the
    same trace with and without instrumentation are directly comparable:
    speedup = IPC ratio = cycle ratio for equal work, the paper's metric. *)

module Program := Ripple_isa.Program
module Stats := Ripple_cache.Stats
module Access_stream := Ripple_cache.Access_stream
module Belady := Ripple_cache.Belady
module Policy := Ripple_cache.Policy
module Prefetcher := Ripple_prefetch.Prefetcher
module Int_stream := Ripple_util.Int_stream

type result = {
  instructions : int;  (** retired, including hint instructions *)
  hint_instructions : int;
  cycles : float;
  ipc : float;  (** original instructions per cycle *)
  demand_misses : int;
  mpki : float;  (** demand misses per kilo original instructions *)
  l1i : Stats.t;
  served_l2 : int;
  served_l3 : int;
  served_memory : int;
}

val result_to_json : result -> Ripple_util.Json.t
(** Machine-readable form of a result (all counters plus the L1I stats
    as a nested object) — the payload of the experiment runner's JSONL
    output.  Deterministic: equal results render byte-identically. *)

(** A basic-block trace by index.  [Blocks] is the materialized
    [int array] every small driver uses; [Stream] reads block ids out of
    an {!Ripple_util.Int_stream} — which, spill-backed, keeps a
    100 M-block trace out of the heap entirely.  The simulator is
    agnostic: both replay identically. *)
module Trace : sig
  type t = Blocks of int array | Stream of Int_stream.t

  val of_blocks : int array -> t
  val of_stream : Int_stream.t -> t
  val length : t -> int

  val get : t -> int -> int
  (** Unchecked on the [Blocks] case — for loop-bounded callers. *)

  val close : t -> unit
  (** Releases a [Stream] trace's backing (unlinking its spill file);
      no-op on [Blocks]. *)
end

(** SimPoint-style sampled simulation: [windows] measurement windows of
    [window_blocks] trace blocks each, placed deterministically from
    [seed] — one per equal segment of the steady-state region
    (stratified, so coverage is spread across phases).  Each window
    replays from the warm-up checkpoint and is measured, its counter
    deltas spliced into the totals.  When the windows cover the
    whole steady-state region, the sampled run degenerates to — and is
    exactly equal to — the full run. *)
module Sampling : sig
  type t = {
    windows : int;
    window_blocks : int;
    seed : int;
  }

  val v : ?seed:int -> windows:int -> window_blocks:int -> unit -> t
  (** Default [seed = 1].  Raises [Invalid_argument] on non-positive
      [windows] / [window_blocks]. *)

  type report = {
    spans : (int * int) array;  (** measured [start, end) trace windows *)
    measured_blocks : int;
    total_blocks : int;  (** steady-state blocks, [warmup..n) *)
    coverage : float;  (** measured / total; 1.0 when degenerate *)
  }

  val select : warmup:int -> n:int -> t -> (int * int) array
  (** The window placement itself — deterministic in [(t, warmup, n)];
      exposed so reports and tests can reproduce it. *)

  val report_of_spans : warmup:int -> n:int -> (int * int) array -> report
  val report_to_json : report -> Ripple_util.Json.t
end

(** One trace's L1I access sequence, as the front end produced it: the
    packed accesses in order plus, per trace position, the offset of
    that block's first access.  Immutable once built, so cells on other
    domains may replay it at the same time; whoever recorded it closes
    it. *)
module Recording : sig
  type t

  val stream : t -> Access_stream.t
  (** The accesses, demand and prefetch, in simulation order. *)

  val blocks : t -> int
  (** Length of the recorded trace. *)

  val count_from : t -> warmup:int -> int
  (** First stream index whose block is at or past [warmup] — the
      [count_from] boundary of a Belady replay measured from there. *)

  val position : t -> int -> int
  (** The trace position of the block that issued stream entry [i].
      Raises [Invalid_argument] out of bounds. *)

  val close : t -> unit
  (** Releases the backing (unlinking spill files); idempotent. *)
end

val record :
  ?config:Config.t ->
  ?backing:Int_stream.backing ->
  program:Program.t ->
  trace:Trace.t ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  Recording.t
(** Runs the front end over [trace] alone.  With [~backing:Spill] the
    stream and its offsets are written through to mmap-backed spill
    files, so recording a 100 M-block trace leaves O(1) heap behind.
    Hints do not touch the front end, so an instrumented program records
    the same sequence as the program it was derived from. *)

val replay :
  ?config:Config.t ->
  ?warmup:int ->
  ?obs:Ripple_obs.Run.t ->
  ?on_hint:(at:int -> Ripple_isa.Basic_block.hint -> resident:bool -> unit) ->
  program:Program.t ->
  trace:Trace.t ->
  policy:Policy.factory ->
  Recording.t ->
  result
(** The back end over a recording of [trace] (made with the same
    [config] and prefetcher): equal to {!run_trace}'s full run, counters,
    [on_hint] calls and IPC/MPKI series included.  [program] supplies
    the hints and instruction counts, so a recording of the original
    binary replays its instrumented copy.  Raises [Invalid_argument]
    when the recording's length is not the trace's. *)

val replay_oracle :
  ?config:Config.t ->
  ?warmup:int ->
  mode:Belady.mode ->
  program:Program.t ->
  trace:int array ->
  Recording.t ->
  result
(** {!oracle} over a recording of [trace]. *)

val run :
  ?config:Config.t ->
  ?warmup:int ->
  ?on_hint:(at:int -> Ripple_isa.Basic_block.hint -> resident:bool -> unit) ->
  program:Program.t ->
  trace:int array ->
  policy:Policy.factory ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  result
(** Full simulation of [trace] over [program].  [on_hint] fires for every
    executed hint instruction with the trace index and whether its target
    line was resident in the L1I at that moment — the observation point
    for Ripple's replacement-accuracy metric.  [warmup] names a trace
    index before which the caches are exercised but nothing is counted:
    all measurements are steady-state, as in the paper's 100 M-instruction
    steady-state captures. *)

val run_trace :
  ?config:Config.t ->
  ?warmup:int ->
  ?obs:Ripple_obs.Run.t ->
  ?on_hint:(at:int -> Ripple_isa.Basic_block.hint -> resident:bool -> unit) ->
  ?sampling:Sampling.t ->
  program:Program.t ->
  trace:Trace.t ->
  policy:Policy.factory ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  result * Sampling.report option
(** {!run} generalized over the trace representation, with an
    observability context and optional sampled execution.  The front end
    feeds the back end block by block, so no access sequence is kept.

    [obs] attaches the run to an observability context: the final result
    is folded into the [ripple_sim_*] counters ({!observe_result}), and
    ~16 periodic IPC/MPKI samples land in the [ripple_sim_ipc] /
    [ripple_sim_mpki] series, timestamped in {e virtual} time (the trace
    index) so the series — like every counter — is byte-identical across
    pool sizes.

    Without [sampling] the result is exactly [run]'s (report is [None]).
    With [sampling], the run warms to [warmup], checkpoints the full
    microarchitectural state (L1I + policy, L2/L3, prefetcher and branch
    predictors, in-flight prefetches), then measures only the selected
    windows, splicing their counter deltas; [on_hint] fires during
    warm-up and inside measured windows, and the periodic IPC/MPKI
    series is not emitted.  A degenerate sampling (windows covering the
    whole steady-state region) reproduces the full run's result
    exactly. *)

val register_obs : Ripple_obs.Registry.t -> unit
(** Pre-registers the simulator's whole metric vocabulary
    ([ripple_sim_*] counters plus the IPC/MPKI series), fixing the
    snapshot schema even for runs that never fire some events.
    Find-or-create: safe to call repeatedly. *)

val observe_result : Ripple_obs.Run.t -> result -> unit
(** Folds a finished result into the [ripple_sim_*] counters — what
    [run ~obs] does automatically, exposed for paths that compute a
    result without the full simulation loop ({!oracle},
    {!ideal_cache}). *)

val ideal_cache :
  ?config:Config.t -> ?warmup:int -> program:Program.t -> trace:int array -> unit -> result
(** The Fig. 1 limit: an I-cache that never misses. *)

val oracle :
  ?config:Config.t ->
  ?warmup:int ->
  ?stream:Access_stream.t * int array ->
  ?replay:Belady.result ->
  mode:Belady.mode ->
  program:Program.t ->
  trace:int array ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  result
(** Ideal replacement (MIN or Demand-MIN) over the access stream the
    prefetcher produces.  The stream is the front end's recording
    ({!record}); the oracle replays it offline — the standard
    construction for prefetch-aware replacement limit studies.  [stream] supplies a
    pre-recorded indexed stream (as returned by
    {!record_stream_indexed} for the same config/trace/prefetcher), so a
    caller that already holds the stream — or chose its backing — skips
    the re-recording; recording is deterministic, so the result is
    identical either way.  The stream is left open.

    [replay] supplies a finished Belady replay of that stream, recorded
    with [~record_fills:true] and [~count_from] from
    {!stream_count_from}; the Belady pass is then skipped and the
    recorded fill sequence drives the L2/L3 hierarchy instead —
    byte-identical to the inline pass, since fills are replayed in
    stream order.  This lets a caller time the Belady pass apart from
    the hierarchy replay. *)

val stream_count_from : stream_pos:int array -> warmup:int -> int
(** First stream index whose recorded trace position is [>= warmup] —
    the [count_from] boundary {!oracle} measures from, which a
    [replay] passed to it must have been recorded with. *)

val record_stream :
  ?config:Config.t ->
  program:Program.t ->
  trace:int array ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  Access_stream.t
(** The demand+prefetch access stream of {!record} — the input to both
    {!oracle} and Ripple's offline analysis.  Recorded straight into
    packed chunks: one word per access, no boxed records, so a 10x
    longer trace costs 10x one-word entries and nothing else. *)

val record_stream_indexed :
  ?config:Config.t ->
  program:Program.t ->
  trace:int array ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  Access_stream.t * int array
(** Like {!record_stream}, additionally returning, per stream entry, the
    index into [trace] of the block being executed when the access was
    issued — the coordinate change Ripple's analysis uses to express
    eviction windows over the basic-block trace. *)

val record_stream_indexed_trace :
  ?config:Config.t ->
  ?backing:Int_stream.backing ->
  program:Program.t ->
  trace:Trace.t ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  Access_stream.t * Int_stream.t
(** {!record_stream_indexed} generalized over the trace representation
    and the stream backing: with [~backing:Spill] both the access
    stream and its position index are written through to mmap-backed
    spill files, so recording a 100 M-block trace leaves O(1) heap
    behind.  The position index has one entry per access; a
    {!Recording.t} holds one per trace position instead. *)

val prefetcher_none : Program.t -> Prefetcher.t
val prefetcher_nlp : ?config:Config.t -> Program.t -> Prefetcher.t
val prefetcher_fdip : ?config:Config.t -> Program.t -> Prefetcher.t
