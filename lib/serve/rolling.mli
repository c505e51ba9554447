(** Rolling windowed profile: the daemon's memory of recent captures.

    Each capture's flush ([Flush_seq]) closes one {e generation} — the
    blocks a {!Ripple_trace.Pt.Session} decoded from that capture, plus
    the header's advertised count and the error/resync tallies.  The
    window keeps whole generations, newest last, and evicts the oldest
    while the total block count exceeds the capacity (always keeping at
    least one, so a single oversized capture is not silently dropped).

    Evicting whole generations keeps the merged trace a concatenation
    of legal paths: drift measured on it only crosses generation
    boundaries at known seams, the same property the PT decoder's
    resync gives within a capture. *)

type t

val create : ?backing:Ripple_util.Int_stream.backing -> window:int -> unit -> t
(** [window] is the capacity in decoded blocks.  [backing] (default
    [Heap]) is where generations live: with [Spill], every capture is
    written through to an mmap-backed spill file, so the daemon's
    retained profile costs no heap.  Raises [Invalid_argument] if
    [window] is non-positive. *)

val backing : t -> Ripple_util.Int_stream.backing

val add : t -> blocks:int array -> expected:int -> errors:int -> unit
(** Close a generation (written through to the window's backing) and
    evict — and release — old ones past the window. *)

val trace : t -> int array
(** Concatenation of the retained generations, oldest first. *)

val dump : t -> (int array * int * int) list
(** The retained generations as [(blocks, expected, errors)] triples,
    oldest first — the snapshot image.  Re-{!add}ing them in order into
    a fresh window of the same capacity reproduces the window exactly
    (retained state never triggers re-eviction). *)

val blocks : t -> int
(** Total decoded blocks retained (= [Array.length (trace t)]). *)

val generations : t -> int

val advertised : t -> int
(** Total header-advertised blocks across retained generations. *)

val salvage : t -> float
(** Merged salvage: total decoded over total advertised across retained
    generations.  0.0 for an empty window (never NaN); a window holding
    only empty-but-clean captures reports 1.0. *)

val errors : t -> int
(** Total decode errors across retained generations. *)

val close : t -> unit
(** Releases every retained generation — unlinking spill files — and
    empties the window.  Session-teardown hook; the window remains
    usable afterwards. *)
