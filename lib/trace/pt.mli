(** Trace encoder/decoder: execution ⇄ packet stream.

    [encode] compresses an executed basic-block sequence into the packet
    byte stream the hardware would emit; [decode] reconstructs the exact
    block sequence from the packets plus the static program.  Together
    they realise step 1 of Ripple's pipeline (Fig. 4): the profile that
    reaches the offline analysis is exactly what PT-style tracing can
    reconstruct, no more.

    Real PT streams are lossy — ring buffers overflow, packets truncate
    mid-capture — so the primary decoder here is {!decode_result}: it
    never raises, resynchronizes at the next plausible TIP packet after
    corruption, and reports how much of the advertised execution it
    salvaged.  The strict {!decode} is a thin wrapper that raises if the
    recovery was anything but total. *)

module Program := Ripple_isa.Program

val encode : Program.t -> int array -> bytes
(** [encode program blocks] serialises the block-id execution sequence.
    The first packet is a TIP locating the initial block; conditional
    outcomes become TNT bits; indirect jumps, indirect calls and returns
    become TIPs; direct flow is omitted.  Raises [Invalid_argument] if
    consecutive blocks are not connected in [program]. *)

type error_kind =
  | Bad_header  (** the leading LEB128 block count is malformed or absurd *)
  | Bad_packet  (** undecodable byte where a packet should start *)
  | Unexpected_packet  (** well-formed packet of the wrong kind for this point *)
  | Bad_tip  (** TIP address does not land on a block boundary *)
  | Truncated  (** stream ended before the advertised block count *)
  | Past_halt  (** decoded flow reached a halt with blocks still owed *)

val error_kind_name : error_kind -> string
(** Stable kebab-case name, used in JSON reports. *)

type decode_error = {
  pos : int;  (** byte offset in the stream where the fault was detected *)
  decoded : int;  (** blocks successfully decoded before the fault *)
  kind : error_kind;
}

type recovery = {
  trace : int array;  (** salvaged block ids, in decode order *)
  expected : int;  (** block count advertised by the header (0 if unreadable) *)
  salvage : float;  (** decoded / expected; 1.0 for a clean stream *)
  errors : decode_error list;  (** faults encountered, in stream order *)
  resyncs : int;  (** successful re-synchronizations at a TIP packet *)
}

(** Resumable decoding session: the incremental form of the recovering
    decoder, for consumers that receive a capture in chunks (the
    [ripple-sim serve] daemon).  Feed byte chunks as they arrive; the
    session decodes as far as the available bytes allow and parks
    mid-packet (or mid-TNT, or mid-resync-scan) until the next chunk.
    The chunking is unobservable: for every split of a stream into
    chunks, the final blocks, errors, salvage ratio and resync count are
    identical to a one-shot {!decode_result} of the concatenation —
    {!decode_result} is itself implemented as a one-chunk session.

    A session never raises on malformed input; like the one-shot
    decoder it records structured errors and resynchronizes at the next
    TIP packet landing on a block boundary. *)
module Session : sig
  type t

  val create : Program.t -> t

  val feed : t -> bytes -> unit
  (** Appends a chunk and decodes as far as it allows.  Raises
      [Invalid_argument] if called after {!finish}. *)

  val finish : t -> unit
  (** Signals end of stream: pending partial state (an incomplete
      packet, an unsatisfied resync scan, a half-read header) resolves
      into the same terminal errors the one-shot decoder reports.
      Idempotent. *)

  val drain : t -> int array
  (** Blocks decoded since the previous [drain] (or since [create]).
      Draining does not affect {!result}, which always covers the whole
      session. *)

  val decoded : t -> int
  (** Total blocks decoded so far. *)

  val expected : t -> int
  (** The header's advertised block count; 0 while the header is still
      incomplete (or unreadable). *)

  val errors : t -> int
  (** Total decode errors recorded so far. *)

  val resyncs : t -> int

  val salvage : t -> float
  (** [decoded / expected] so far; 0.0 while the header is unread, 1.0
      for a completed empty capture. *)

  val finished : t -> bool
  (** The session is terminal: the advertised block count was reached,
      or {!finish} resolved the tail.  Further [feed]s are ignored by a
      count-complete session. *)

  val result : t -> recovery
  (** Snapshot of the whole session as a {!recovery} record (all blocks
      since [create], independent of {!drain}).  Call after {!finish}
      for the exact one-shot equivalent. *)
end

val decode_result : Program.t -> bytes -> recovery
(** Recovering decode: never raises.  On a fault it records a
    {!decode_error} and scans forward for the next TIP packet whose
    address is an exact block start — the resynchronization anchor,
    playing the role PSB packets do for real PT decoders — then resumes
    from that block with pending TNT state discarded.  On a clean stream
    the result is [decode program data] with [salvage = 1.0] and no
    errors.  Salvage is monotonically non-increasing under byte-prefix
    truncation of the stream.  One-shot wrapper over {!Session}: feed
    the whole buffer, finish, snapshot. *)

val decode : Program.t -> bytes -> int array
(** Strict inverse of {!encode}: [decode program (encode program t) = t].
    Thin wrapper over {!decode_result} that raises [Invalid_argument] on
    the first recorded error. *)

val split_header : bytes -> int * int
(** [(block_count, payload_start)] of a stream — where the fault
    injectors must stop treating bytes as sacred.  Raises
    [Invalid_argument] if the header itself is malformed. *)

val compression_ratio : Program.t -> int array -> float
(** Encoded bytes per executed basic block — the paper's "<1 % overhead"
    claim rests on this being well below one byte per block. *)
