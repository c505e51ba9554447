(** Cue-block selection (§III-B, Fig. 5).

    For every eviction window, Ripple scores each basic block executed
    inside it by the conditional probability that the victim line is
    (ideally) evicted given that the block executes:

    {v P(evict V | exec B) = windows of V containing B / executions of B v}

    The window's cue block is the candidate with the highest probability
    (ties broken arbitrarily); an invalidation is injected only when that
    probability clears the invalidation threshold (§III-C).

    Window walks are bounded by [scan_limit] distinct candidate blocks
    and [step_limit] stream entries per window: candidates that signal an
    eviction reliably execute close to the eviction point, and the bound
    keeps the analysis linear in the trace — the same engineering the
    paper's "up to 10 minutes" offline analysis implies.

    The stream is walked once: each window's distinct candidates are
    recorded in visit order into one flat array (deduped by stamping a
    block-id array with the window number), (victim, block) window
    counts go into an open-addressed int table, and the scoring pass
    reads the recorded candidates back.  Decision order is the fold
    order of a [Hashtbl] filled in window order; it is kept because
    {!Injector.inject}'s stable per-block sort turns it into hint order
    on probability ties. *)

module Addr := Ripple_isa.Addr
module Access_stream := Ripple_cache.Access_stream

type decision = {
  cue_block : int;  (** block to instrument *)
  victim : Addr.line;  (** line its hint evicts *)
  probability : float;  (** the selected conditional probability *)
  windows : int;  (** eviction windows this decision covers *)
}

val default_scan_limit : int
val default_step_limit : int

val default_min_support : int
(** Minimum eviction windows a (cue, victim) pair must cover to be worth
    its code bloat: pairs observed once in the profile are statistical
    noise (an execution count of one makes any probability trivially 1)
    and would be pure static/dynamic overhead. *)

(** Where each eviction window's candidacy ended — the per-reason drop
    accounting the aggregate decision count used to hide.  Every window
    lands in exactly one bucket:
    [no_candidate + below_support + below_threshold + selected = total]. *)
type drops = {
  windows_total : int;
  no_candidate : int;  (** window walk found no executed candidate *)
  below_support : int;  (** best pair covered fewer than [min_support] windows *)
  below_threshold : int;  (** best probability under the invalidation threshold *)
  selected : int;  (** window contributed to a kept decision *)
}

val analyze_report :
  ?scan_limit:int ->
  ?step_limit:int ->
  ?min_support:int ->
  stream:Access_stream.t ->
  windows:Eviction_window.t array ->
  exec_counts:int array ->
  threshold:float ->
  unit ->
  decision list * drops
(** Like {!analyze}, also reporting why windows fell out of selection. *)

val analyze :
  ?min_support:int ->
  stream:Access_stream.t ->
  windows:Eviction_window.t array ->
  exec_counts:int array ->
  threshold:float ->
  unit ->
  decision list
(** {!analyze_report}'s decisions at the default scan and step limits.
    [windows] must be in stream coordinates over [stream];
    [exec_counts.(b)] is block [b]'s execution count in the profiled
    trace.  Decisions are deduplicated per (cue block, victim) pair. *)
