(** The daemon's framed wire protocol.

    Frames are length-prefixed: one tag byte, a 4-byte big-endian
    payload length, then the payload.  The framing is deliberately dumb
    — the interesting incrementality lives in {!Ripple_trace.Pt.Session}
    — but it is chunk-transparent: a {!Reader} accepts arbitrary byte
    slices and yields exactly the frames the peer wrote, however the
    transport split them.

    Pushes are resumable.  [Hello_v] names the app and the client's
    protocol version; the server answers with the version it speaks
    ({!version}) plus the session's next expected sequence number, and
    refuses older versions.  [Chunk_seq]/[Flush_seq] carry per-session
    sequence numbers so delivery is at-least-once — the server applies
    a frame exactly once and answers duplicates idempotently, which is
    what lets a client reconnect after any network fault and resume
    where the server actually got to.  Every frame is answered with one
    reply; an unknown tag is corrupt. *)

type frame =
  | Hello_v of { app : string; version : int }
      (** register/select the named app at the client's protocol
          version; the reply carries the server's version and the
          session's [next_seq] *)
  | Chunk_seq of { seq : int; data : bytes }
      (** sequenced PT-stream bytes, any split; [seq] must equal the
          session's next expected number to be applied, smaller numbers
          are acknowledged as duplicates, larger ones rejected as a gap *)
  | Flush_seq of { seq : int }
      (** sequenced end of capture: close the generation, re-emit
          hints; same dedup rules *)
  | Status  (** report the bound session's state *)
  | Bye  (** close the connection (the session itself persists) *)

type reply =
  | Ok of Ripple_util.Json.t
  | Error of string

val version : int
(** The protocol version this build speaks (2). *)

val frame_name : frame -> string
(** ["hello"], ["chunk"], ["flush"], ["status"], ["bye"] — span and
    metric label values. *)

val write_frame : Buffer.t -> frame -> unit
val write_reply : Buffer.t -> reply -> unit

(** Incremental frame parser: feed transport bytes as they arrive, pop
    complete frames.  One reader per connection direction. *)
module Reader : sig
  type t

  val create : unit -> t

  val add : t -> bytes -> int -> unit
  (** [add t buf n] appends the first [n] bytes of [buf]. *)

  val pop_frame : t -> [ `Frame of frame | `Awaiting | `Corrupt of string ]
  (** Next complete frame, [`Awaiting] if the buffer holds only a
      partial one.  A length prefix above 16 MiB is [`Corrupt].  After
      [`Corrupt] the stream is unrecoverable (the framing carries no
      resync marker): close the connection. *)

  val pop_reply : t -> [ `Reply of reply | `Awaiting | `Corrupt of string ]
  (** Client side of {!pop_frame}. *)
end
