(** One app's continuous-profiling session inside the daemon.

    A session owns a live {!Ripple_trace.Pt.Session} (the in-flight
    capture generation), a {!Rolling} window of closed generations, and
    the latest instrumented binary.  Chunks feed the decoder
    incrementally; a flush closes the generation and re-runs
    {!Ripple_core.Pipeline.run} over the merged rolling profile with the
    degradation ladder engaged, so hints follow the profile — full when
    it is clean and current, safe-only under moderate drift or partial
    salvage, off when the profile stops describing the binary — without
    the daemon restarting.  With [reemit_every] set, re-emission also
    triggers mid-capture every that many freshly decoded blocks (the
    in-flight capture then counts only what has already decoded; its
    missing tail is judged at flush).

    {b Sequencing and durability.}  Every state-changing frame (chunk or
    flush) carries one sequence number; {!apply_chunk}/{!apply_flush}
    apply a frame exactly once and answer replays idempotently, which is
    what makes pushes at-least-once safe.  With a
    {!Snapshot.Store} attached, chunks are journaled (write-ahead,
    fsynced) before decoding and every flush writes an atomic snapshot,
    so {!restore} after a [kill -9] rebuilds the session — rolling
    window, ladder position, sequence horizon and the in-flight decoder
    — without the client replaying history.

    All sessions share the daemon's {!Ripple_obs.Run.t}: pipeline metric
    families aggregate across apps, while the [ripple_serve_*] per-app
    families carry an [app] label ({!Ripple_obs.Metric.labelled}). *)

module Program := Ripple_isa.Program
module Pipeline := Ripple_core.Pipeline
module Obs := Ripple_obs

type t

val create :
  ?store:Snapshot.Store.t ->
  obs:Obs.Run.t ->
  options:Pipeline.Options.t ->
  window:int ->
  reemit_every:int ->
  name:string ->
  program:Program.t ->
  unit ->
  t
(** [options] drives every re-emission ([eval] is cleared;
    set [degrade] or the ladder never engages).  [window] is the rolling
    capacity in blocks; [reemit_every] enables mid-capture re-emission
    when positive.  [store] makes the session durable: any stale journal
    a prior incarnation left behind is cleared and an empty at-birth
    snapshot is written, so a kill -9 before the first flush still
    recovers.  The session starts at {!Pipeline.Degrade.Hints_off} with
    the binary untouched — trust is earned by the first flush. *)

val restore :
  ?store:Snapshot.Store.t ->
  obs:Obs.Run.t ->
  options:Pipeline.Options.t ->
  window:int ->
  reemit_every:int ->
  program:Program.t ->
  Snapshot.state ->
  (int * bytes) list ->
  t
(** Rebuild a session from its snapshot and in-flight journal records:
    re-adds the snapshot generations, restores counters and the
    sequence horizon, re-emits over the recovered window (without
    recounting the emission) so the instrumented binary exists again,
    then replays the journal through the live ingest path.  The result
    is the state a [kill -9] interrupted, ready for a resumed push.

    Restoring never discards durable state: the loaded snapshot is
    re-persisted as-is (pre-replay horizon, journal kept), so a second
    kill -9 right after recovery recovers the same session again. *)

val name : t -> string
val program : t -> Program.t
(** The current instrumented binary (the source program until a
    re-emission first grants trust). *)

val level : t -> Pipeline.Degrade.level
val transitions : t -> int
(** Ladder-level changes observed across re-emissions. *)

val emissions : t -> int
val next_seq : t -> int
(** Next sequence number the session will apply. *)

val last_outcome : t -> Pipeline.outcome option

val apply_chunk : t -> seq:int -> bytes -> [ `Applied of int | `Duplicate of int | `Gap of int ]
(** Sequenced chunk: applied exactly when [seq] equals {!next_seq}
    (journal-appended first when durable), acknowledged with the current
    decode count when it is a replay of an already-applied number, and
    rejected as [`Gap expected] when it skips ahead. *)

val apply_flush : t -> seq:int -> [ `Applied | `Duplicate | `Gap of int ]
(** Sequenced flush, same dedup rules.  An applied flush closes the
    generation, re-emits, snapshots (when durable) and resets the
    journal. *)

val save : t -> unit
(** Write the snapshot now (graceful-drain hook).  No-op without a
    store. *)

val profile_fnv : t -> string
(** FNV-1a 64 hex digest of the durable rolling profile (blocks,
    advertised count, error tally) — the equivalence check the chaos
    harness runs across interrupted and uninterrupted runs. *)

val status : t -> Ripple_util.Json.t
(** Deterministic state report (the [Status] frame's payload). *)

val close : t -> unit
(** Releases the rolling window's generations — unlinking their spill
    files when the session's backing ({!Pipeline.Options.t.backing})
    is [Spill] — and closes any journal descriptors.  Teardown hook;
    the daemon also sweeps leftover spill files at process exit. *)
