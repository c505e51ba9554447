(** Chunked, re-iterable access streams of packed immediate ints.

    The paper's evaluation replays 100 M-instruction steady-state
    captures; at that scale a stream of boxed {!Access.t} records (one
    5-word block per access, plus the spine) dominates peak memory and
    GC time.  This module stores each access as one {!Access.packed}
    immediate int in flat [int array] chunks of {!chunk_entries}
    entries: one word per access, zero per-access allocation while
    producing, consuming or re-consuming the stream.

    Streams are immutable once built, O(1) randomly addressable
    ({!get}), and re-iterable: offline consumers that need several
    passes ({!Belady.simulate}'s backward next-use pass then forward
    replay, the cue-block analysis' two window walks) iterate the same
    stream repeatedly, or hold a {!Cursor} and {!Cursor.rewind} it.
    Iteration order is always stream order, so every pass over the same
    stream observes the identical access sequence — the determinism
    contract of DESIGN.md is carried by construction.

    Storage is backing-polymorphic (it delegates to
    {!Ripple_util.Int_stream}): the default in-heap chunks, or an
    mmap-backed spill file ({!backing}) so paper-scale captures never
    have to live in the heap.  The two backings are observationally
    identical — every accessor below behaves the same regardless of
    where the words are stored. *)

type backing = Ripple_util.Int_stream.backing = Heap | Spill

type t

val chunk_entries : int
(** Entries per storage chunk (a power of two).  Building an [n]-access
    stream allocates [ceil (n / chunk_entries)] chunks and never copies
    more than one chunk, so peak transient memory stays within one
    chunk of the final footprint. *)

val empty : t

val length : t -> int

val get : t -> int -> Access.packed
(** O(1).  Raises [Invalid_argument] out of bounds. *)

val iter : (Access.packed -> unit) -> t -> unit
val iteri : (int -> Access.packed -> unit) -> t -> unit

val iteri_rev : (int -> Access.packed -> unit) -> t -> unit
(** Highest index first — the backward pass oracle consumers build
    next-use tables with. *)

val fold_left : ('a -> Access.packed -> 'a) -> 'a -> t -> 'a

val of_array : Access.t array -> t
val of_list : ?backing:backing -> Access.t list -> t

val to_array : t -> Access.t array
(** Materializes boxed records — intended for tests and small streams
    only; it reintroduces exactly the footprint this module removes. *)

val backing : t -> backing
(** The storage class this stream lives in. *)

val is_spill : t -> bool

val close : t -> unit
(** Unlinks the spill file backing this stream (idempotent; no-op for
    heap streams).  Reads stay valid until the stream is collected —
    only the directory entry goes away. *)

val raw : t -> Ripple_util.Int_stream.t
(** The underlying int stream (zero-cost; same packed words). *)

(** Incremental producer.  [add] never inspects earlier entries, so
    producers stream straight from their source (block trace, simulator
    replay) without materializing anything else. *)
module Builder : sig
  type stream := t
  type t

  val create : ?backing:backing -> unit -> t
  (** [create ()] builds in the heap; [create ~backing:Spill ()]
      writes through to a spill file one chunk at a time, so building a
      100 M-access stream never holds more than one chunk in memory. *)

  val length : t -> int
  val add : t -> Access.packed -> unit
  val add_access : t -> Access.t -> unit

  val finish : t -> stream
  (** Freezes the accumulated entries.  The builder is reset to empty
      (never aliasing the frozen stream), so it may be reused. *)

  val abort : t -> unit
  (** Discards accumulated entries, removing any partial spill file. *)
end

(** A mutable read position over an immutable stream.  Rewindable, so a
    two-pass consumer can hand the same cursor through both passes. *)
module Cursor : sig
  type stream := t
  type t

  val create : stream -> t
  val pos : t -> int
  val length : t -> int
  val has_next : t -> bool

  val next : t -> Access.packed
  (** Returns the entry at [pos] and advances.  Raises
      [Invalid_argument] past the end ({!has_next} guards). *)

  val peek : t -> Access.packed
  val rewind : t -> unit
  val seek : t -> int -> unit

  val close : t -> unit
  (** {!close} on the underlying stream — unlinks its spill file. *)
end
