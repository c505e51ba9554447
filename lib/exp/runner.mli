(** Executes experiment specs over the domain pool.

    [run] is the system's one entry point for sweeps: the bench, the
    CLI's [sweep] subcommand and the calibration tool all submit
    {!Spec.t} lists here instead of looping inline.

    Determinism: a cell's outcome is a pure function of its spec —
    workload generation and trace execution are deterministic in
    [(app, input, n_instrs)], stochastic policies are seeded from
    {!Spec.prng_seed}, and domains share no mutable state (each worker
    keeps its own workload/trace memo in [Domain.DLS]) beyond the
    access recordings {!run} shares, which are immutable once made.
    Results are
    returned in submission order regardless of completion order, so
    [run ~jobs:1] and [run ~jobs:n] produce identical cell lists,
    byte-for-byte once rendered by {!Report}.

    Isolation: a cell that raises is recorded as [Failed] (message and
    backtrace) in its slot; the rest of the sweep completes.  [retries]
    reruns a failing cell with a perturbed seed before giving up, and
    [max_failures] is a circuit breaker that skips the remainder of a
    sweep drowning in failures.  Per-cell wall-clock timing and progress
    go to [stderr] (suppress with [~quiet:true]); timing never appears
    in machine-readable output. *)

module Config := Ripple_cpu.Config
module Simulator := Ripple_cpu.Simulator
module Pipeline := Ripple_core.Pipeline

type outcome = {
  result : Simulator.result;
  evaluation : Pipeline.evaluation option;  (** Ripple cells only *)
  analysis : Pipeline.analysis option;  (** Ripple cells only *)
  metrics : Ripple_obs.Snapshot.t;
      (** deterministic metric snapshot of the cell's private
          observability context — values and span structure only, no
          durations, so JSONL rows stay identical across pool sizes *)
}

type gc_stats = {
  allocated_words : float;
      (** words allocated by the worker domain while the cell ran
          (minor + major - promoted, so nothing is double-counted) *)
  minor_words : float;
  major_words : float;
  top_heap_words : int;  (** process top-heap watermark after the cell *)
}

type failure = {
  message : string;  (** printed exception of the final attempt *)
  backtrace : string;  (** empty when backtrace recording is off *)
}

(** How a cell ended: completed, failed every attempt, or skipped
    because the sweep's circuit breaker had already tripped. *)
type status = Done of outcome | Failed of failure | Skipped of string

type cell = {
  spec : Spec.t;
  status : status;
  elapsed : float;  (** seconds, wall clock — diagnostic, not reported *)
  gc : gc_stats;
      (** allocation profile of the run — diagnostic; only rendered when
          {!Report} is asked for it, since the numbers depend on memo
          warm-up and domain scheduling, not on the spec alone *)
  attempts : int;  (** executions of the cell, [1] unless retried *)
}

val result : cell -> (outcome, string) result
(** The cell's outcome as a result: [Failed] and [Skipped] collapse to
    [Error] with a printable reason. *)

val run :
  ?config:Config.t ->
  ?backing:Ripple_util.Int_stream.backing ->
  ?sampling:Simulator.Sampling.t ->
  ?jobs:int ->
  ?quiet:bool ->
  ?retries:int ->
  ?max_failures:int ->
  Spec.t list ->
  cell list
(** Fans the specs out over {!Pool.run}.

    Cells with the same app, trace length, input and prefetcher share
    one recording of their evaluation trace
    ({!Ripple_cpu.Simulator.record}) when two or more of them can: the
    group's first cell to need it records it, and every policy, oracle
    and Ripple cell of the group replays it.  A cell alone in its group
    shares nothing: a policy cell streams the front end into the back
    end, and an oracle or Ripple cell records the trace for itself and
    closes it.  [run] owns the shared recordings: each is closed once
    its group's last cell has finished, and any still open — a group
    whose cells the breaker skipped — when the pool returns, on every
    path, so no spill file outlives the sweep.  Replaying instead of
    re-running the front end changes no result.

    [backing] (default [Heap]) places the recordings and the Belady
    working tables; [Spill] keeps them in mmap spill files, shrinking
    the heap of oracle and Ripple cells to O(windows).  [sampling]
    switches policy and Ripple evaluation runs to sampled execution
    ({!Ripple_cpu.Simulator.Sampling}); a sampled policy cell runs the
    front end itself.  Both knobs are representation/execution choices,
    not experiment parameters: results are byte-identical across
    backings and deterministic in the sampling spec.  An unknown app or
    policy name fails its cell.

    [jobs] defaults to
    {!Pool.default_jobs}; [quiet] (default false) silences the per-cell
    progress lines on [stderr].  A cell that raises is retried up to
    [retries] times (default 0) with {!Spec.perturb_seed}ed seeds — the
    emitted cell keeps the original spec and records the attempt count.
    After [max_failures] cells have failed (all retries exhausted), the
    breaker trips and unstarted cells come back [Skipped]; cells
    actually run are deterministic per spec regardless of [jobs], but
    which cells a tripped breaker still lets through is
    scheduling-dependent when [jobs > 1]. *)

val find : cell list -> Spec.t -> cell option
(** Lookup by spec ({!Spec.equal}). *)
