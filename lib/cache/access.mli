(** Cache access descriptors.

    Every L1 I-cache reference is either a {e demand} fetch (the core
    actually executes bytes from the line) or a {e prefetch} issued by the
    front-end prefetcher.  The distinction is what prefetch-aware
    replacement (Demand-MIN, Harmony) and the paper's Observations #1/#2
    hinge on: only demand misses cost cycles, and wastefully prefetched
    lines should be evicted first. *)

module Addr := Ripple_isa.Addr

type kind = Demand | Prefetch

type t = {
  line : Addr.line;  (** the referenced I-cache line *)
  kind : kind;
  pc : int;
      (** identity of the access source used by learning policies — for
          instruction fetch this is the accessed line itself (the paper's
          §II-D observation that a PC maps to exactly one I-cache line) *)
  block : int;  (** id of the basic block being fetched, for profiling *)
}

val demand : line:Addr.line -> block:int -> t
val prefetch : line:Addr.line -> block:int -> t

val is_demand : t -> bool
val is_prefetch : t -> bool

(** {1 Packed form}

    The same information squeezed into one immediate [int], so access
    streams can live in flat [int array] chunks ({!Access_stream}) and
    the simulator's hot loops allocate nothing per access.  Layout (63
    usable bits on 64-bit OCaml):

    {v bit 0        kind (0 = demand, 1 = prefetch)
       bits 1-22    block id biased by +1 (so the prefetchers' "no
                    block" id of -1 packs as 0)
       bits 23-62   cache-line number v}

    [pc] is not stored: both constructors above pin [pc = line] (the
    paper's one-PC-one-line observation, §II-D), so it is recomputed on
    unpacking.  Packing is exact for every value the constructors can
    build; [pack]/[unpack] round-trip.  The packers raise
    [Invalid_argument] for a line above [2^40 - 1] (ample for the
    simulated address space, {!Ripple_isa.Addr}) or a block id outside
    [-1 .. 2^22 - 2] (the bound {!Ripple_core.Cue_block} assumes). *)

type packed = int

val pack_demand : line:Addr.line -> block:int -> packed
val pack_prefetch : line:Addr.line -> block:int -> packed
val pack : t -> packed
val unpack : packed -> t

val packed_line : packed -> Addr.line
val packed_pc : packed -> int
val packed_block : packed -> int
val packed_is_demand : packed -> bool
val packed_is_prefetch : packed -> bool
