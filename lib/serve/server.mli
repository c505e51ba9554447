(** The [ripple-sim serve] daemon: a deadline-driven event loop
    multiplexing framed profiling connections ({!Protocol}) and an
    OpenMetrics scrape endpoint over TCP.

    One process holds one {!Ripple_obs.Run.t} and a registry of
    {!Session}s keyed by app name.  Connections bind to a session with
    [Hello_v] and stream chunks; sessions outlive connections,
    so a fleet agent can reconnect and keep extending the same rolling
    profile.  Every frame is handled under a [serve/<frame>] span; the
    scrape endpoint renders the live snapshot, whose [# TYPE] lines are
    the full pinned schema ([docs/metrics.schema]) because the pipeline
    vocabulary is registered up front
    ({!Ripple_core.Pipeline.register_metrics}).

    {b Crash-only operation.}  With [state_dir] set, sessions are
    durable ({!Snapshot}): flushes write atomic snapshots, in-flight
    chunks are journaled write-ahead, and {!create} recovers every
    session found in the directory — so [kill -9] loses nothing a
    resumed push can't finish.  SIGTERM is the {e polite} spelling of
    the same contract: drain buffered replies, snapshot every session,
    remove the ready file, return from {!serve_forever}.

    {b Event loop.}  Single-threaded and non-blocking: every fd is
    non-blocking, replies queue in per-connection write buffers that
    drain as the socket accepts them, scrape requests accumulate without
    blocking the loop, accept/read retry on [EINTR] and shed on
    [EMFILE], and connections idle past [idle_timeout] are reaped.
    Load beyond [max_conns] is answered with [Error "overloaded"] (or
    HTTP 503) and closed; session registrations beyond [max_sessions]
    are likewise refused.  Frame handling (including pipeline
    re-emission) serializes naturally, and sessions share the
    observability context without locking. *)

module Program := Ripple_isa.Program
module Pipeline := Ripple_core.Pipeline
module Obs := Ripple_obs

type config = {
  host : string;  (** bind address, e.g. "127.0.0.1" *)
  port : int;  (** protocol listener; 0 picks an ephemeral port *)
  metrics_port : int;  (** scrape listener; 0 picks an ephemeral port *)
  window : int;  (** rolling-profile capacity in blocks, per session *)
  reemit_every : int;  (** mid-capture re-emission cadence; 0 = flush-only *)
  options : Pipeline.Options.t;  (** pipeline options for re-emissions *)
  lookup : string -> Program.t option;  (** app name → program to serve *)
  ready_file : string option;
      (** when set, written as ["<port> <metrics_port>\n"] once both
          listeners are bound — the startup handshake for scripts —
          and removed again on graceful shutdown *)
  state_dir : string option;
      (** when set, sessions are durable here: snapshots + journals,
          recovered by {!create} *)
  max_conns : int;  (** open connections beyond this are shed *)
  max_sessions : int;  (** session registrations beyond this are refused *)
  idle_timeout : float;
      (** seconds of connection silence before the reaper closes it;
          [<= 0.] disables the deadline *)
}

val default_config : config
(** Binds 127.0.0.1 on ephemeral ports; [options] is
    {!Pipeline.Options.default} with [degrade = true]; [window] 400k
    blocks; [reemit_every] 0; [lookup] resolves the nine built-in app
    models ({!Ripple_workloads.Apps}) by generating their programs on
    first use; not durable ([state_dir = None]); [max_conns] 64,
    [max_sessions] 32, [idle_timeout] 30s. *)

type t

val create : config -> t
(** Build the daemon state.  With [state_dir] set, opens the store and
    recovers every snapshot in it through {!Session.restore} (apps the
    [lookup] no longer knows are skipped), counting each into
    [ripple_serve_snapshots_recovered].  Raises [Invalid_argument] if
    [window < 1]. *)

val sessions : t -> Session.t list
(** Name-sorted. *)

val find_session : t -> string -> Session.t option

(** Per-connection protocol state: which session [Hello_v] bound. *)
module Conn : sig
  type conn

  val create : unit -> conn

  val handle : t -> conn -> Protocol.frame -> Protocol.reply * [ `Keep | `Close ]
  (** Pure protocol logic — no sockets — so daemon behaviour is testable
      in-process.  [`Close] is returned for [Bye] (and the reply is
      still to be written first).  [Hello_v] answers with
      {!Protocol.version} and the session status (which carries
      [next_seq]); a version below {!Protocol.version} gets
      [Error "unsupported protocol version N"].  Chunks and flushes are
      answered with their [seq] (plus ["dup": true] on replays, which
      also count into [ripple_serve_client_retries]); out-of-order
      frames get [Error "gap: expected seq N"]; registrations over
      [max_sessions] get [Error "overloaded"]. *)
end

val metrics_body : t -> string
(** The OpenMetrics exposition of the live snapshot (also bumps the
    scrape counter, like an HTTP scrape does). *)

val serve_forever : t -> unit
(** Bind both listeners, write [ready_file], and run the event loop
    until SIGTERM; then drain, snapshot every session, remove
    [ready_file] and return — the caller exits 0.  Raises
    [Unix.Unix_error] if binding fails. *)
