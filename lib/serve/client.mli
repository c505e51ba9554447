(** Client side of the {!Protocol} wire format — what [ripple-sim push]
    and the end-to-end tests speak to a running daemon.

    {!connect}/{!request}/{!request_seq} exchange single frames on one
    blocking connection.  {!push_with_retries} is the resumable push:
    at-least-once delivery over sequenced frames, reconnect-and-resume
    after any network fault, exponential backoff with seeded jitter.
    Its safety argument is the server's sequence dedup
    ({!Session.apply_chunk}): replaying an already-applied frame is
    acknowledged, never re-applied, so the worst a fault can cost is
    time. *)

type t

val connect : ?timeout:float -> host:string -> port:int -> unit -> t
(** [timeout] sets [SO_RCVTIMEO]/[SO_SNDTIMEO]: blocked reads and
    writes then fail with [Unix.EAGAIN] instead of hanging forever. *)

val request : t -> Protocol.frame -> Protocol.reply
(** Write one frame, block until its reply arrives.  Raises [Failure]
    on a corrupt reply stream or if the server closes mid-reply. *)

val request_seq : t -> Protocol.frame -> seq:int -> Protocol.reply
(** Like {!request}, but skips stale [Ok] replies whose ["seq"] field is
    below [seq] — a duplicated frame makes the server answer more times
    than the client asked, and the extra echoes must not be mistaken for
    the answer to a later frame. *)

val close : t -> unit

type push_result = {
  status : Ripple_util.Json.t;  (** the flush reply: final session status *)
  attempts_used : int;  (** 1 = clean first try *)
}

val push_with_retries :
  ?attempts:int ->
  ?timeout:float ->
  ?backoff:float ->
  ?seed:int ->
  ?chunk:int ->
  host:string ->
  port:int ->
  app:string ->
  bytes ->
  (push_result, string) result
(** Push [data] as one capture (chunked every [chunk] bytes, default
    4096) and flush, surviving connection faults: each attempt
    reconnects, re-negotiates with [Hello_v] to learn the server's
    [next_seq], and resumes from exactly the first unapplied chunk.
    The base sequence number is pinned at the first successful hello,
    so a reconnect that finds [next_seq] past the flush slot means an
    earlier attempt already completed — the push returns the session
    status instead of re-sending.  Defaults: 8 [attempts], 5s
    [timeout] per socket operation, [backoff] 50ms doubling with
    jitter from [seed].  Returns [Error] only once every attempt is
    exhausted.  Raises [Invalid_argument] if [attempts] or [chunk] is
    below 1. *)

val scrape : host:string -> port:int -> string
(** Fetch the OpenMetrics exposition from the daemon's metrics
    endpoint (a one-shot [GET /metrics]); returns the body only.  The
    socket is closed on every path, including when connecting or
    reading raises [Unix.Unix_error]. *)
