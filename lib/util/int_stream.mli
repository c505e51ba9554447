(** Chunked, re-iterable streams of immediate ints with a pluggable
    storage {!backing}: the in-heap [int array] chunks the packed access
    streams have always used, or an mmap-backed spill file so
    paper-scale (100 M-access) streams never have to live in the heap.

    Both backings share one packed word format — one native-endian
    64-bit word per entry — so a stream is byte-identical regardless of
    where it is stored, and consumers ({!get}, {!iteri}, {!Cursor})
    cannot observe the backing.  Spill files are ordinary temp files:
    they are unlinked on {!close} (and {!Cursor.close}), swept by
    {!Spill.sweep} on failure paths, and backstopped by a GC finaliser,
    so no run leaks capture files.

    {!Scratch} is the read-write sibling: a fixed-size int array that
    may live in an anonymous (pre-unlinked) mapping, for O(n) working
    tables — Belady next-use tables, stream position indexes — that
    would otherwise dominate peak heap at 100 M accesses. *)

type backing =
  | Heap  (** [int array] chunks; the default. *)
  | Spill
      (** An mmap-backed temp file in the system temp directory
          ([Filename.get_temp_dir_name], which [TMPDIR] sets). *)

val backing_name : backing -> string
(** ["heap"] or ["mmap"]. *)

val backing_of_string : string -> (backing, string) Stdlib.result
(** Parses ["heap"] / ["mmap"] (or ["spill"]); [Error] otherwise. *)

type t

val chunk_entries : int
(** Entries per heap storage chunk (a power of two); also the spill
    Builder's write-buffer size in entries. *)

val empty : t
val length : t -> int

val get : t -> int -> int
(** O(1) for both backings.  Raises [Invalid_argument] out of bounds. *)

val unsafe_get : t -> int -> int
(** {!get} without the bounds check — hot replay loops only. *)

val iter : (int -> unit) -> t -> unit
val iteri : (int -> int -> unit) -> t -> unit

val iteri_rev : (int -> int -> unit) -> t -> unit
(** Highest index first. *)

val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a

val of_array : ?backing:backing -> int array -> t
val to_array : t -> int array

val is_spill : t -> bool

val spill_path : t -> string option
(** The stream's spill file, while it is still linked. *)

val close : t -> unit
(** Unlinks the spill file (idempotent; no-op for heap streams).  The
    mapping — and therefore every read — stays valid until the stream
    is garbage collected; only the directory entry goes away. *)

(** Incremental producer.  The heap path retires full chunks as today;
    the spill path buffers one chunk of packed words and writes it
    through to the spill file, so building never holds more than one
    chunk in the heap. *)
module Builder : sig
  type stream := t
  type t

  val create : ?backing:backing -> unit -> t
  val backing : t -> backing
  val length : t -> int
  val add : t -> int -> unit

  val finish : t -> stream
  (** Freezes the accumulated entries (mapping the spill file read-only)
      and resets the builder for reuse. *)

  val abort : t -> unit
  (** Discards the accumulated entries, removing any partial spill
      file.  The builder may be reused. *)
end

(** A mutable read position over an immutable stream. *)
module Cursor : sig
  type stream := t
  type t

  val create : stream -> t
  val pos : t -> int
  val length : t -> int
  val has_next : t -> bool

  val next : t -> int
  val peek : t -> int
  val rewind : t -> unit
  val seek : t -> int -> unit

  val close : t -> unit
  (** {!close} on the underlying stream. *)
end

(** The process-wide registry of live (still-linked) spill files. *)
module Spill : sig
  val live : unit -> string list
  (** Paths of spill files created by this process and not yet
      unlinked, sorted. *)

  val sweep : unit -> int
  (** Unlinks every live spill file and returns how many went away —
      the failure-path cleanup hook ({!Ripple_exp.Report.write_jsonl},
      daemon session teardown).  Safe while streams are still in use:
      mappings survive the unlink. *)

  val finalised : unit -> int
  (** How many spill files the GC finaliser has unlinked so far: streams
      that were dropped without {!close}.  The finaliser hides such a
      leak from {!live}; a test forces [Gc.full_major ()] and checks
      that this count did not move. *)
end

(** Fixed-size read-write int arrays with the same backing choice.
    Spill scratch files are unlinked immediately after mapping (they
    never need a name), so they can never leak. *)
module Scratch : sig
  type t

  val make : ?backing:backing -> int -> int -> t
  (** [make n x] is an [n]-entry scratch filled with [x] (cf.
      [Array.make]). *)

  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val close : t -> unit
end
