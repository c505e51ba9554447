(** Decoded basic-block traces and their expansion into I-cache accesses.

    A trace is the dynamic block-id sequence; expanding each block into
    the cache lines its bytes occupy yields the demand access stream that
    both the offline oracles ({!Ripple_cache.Belady}) and the timing
    simulator replay.  Injected hint instructions live at the end of
    their block, so an instrumented program's blocks naturally expand to
    more lines — the code-bloat effect §IV charges against Ripple. *)

module Program := Ripple_isa.Program

type t = int array
(** Executed block ids, in order. *)

val n_instrs : Program.t -> t -> int
(** Dynamic instruction count, including injected hint instructions. *)

val n_hint_instrs : Program.t -> t -> int
(** Dynamic count of injected hint instructions only. *)

val exec_counts : Program.t -> t -> int array
(** Per-block execution counts, indexed by block id. *)

val demand_stream : Program.t -> t -> Ripple_cache.Access_stream.t
(** Demand-only I-cache access stream: for each executed block, one
    access per line its bytes (plus hints) touch, in address order.
    Built incrementally into packed chunks
    ({!Ripple_cache.Access_stream}), so expansion allocates one word
    per access and nothing else. *)

val drift : Program.t -> t -> float
(** The fraction of consecutive pairs in the trace that the program's
    static CFG cannot produce: a direct edge to the wrong block, a
    conditional to neither arm, an indirect transfer outside its static
    target set, flow past a halt, or an out-of-range id.  [Return] edges
    are always accepted (they resolve dynamically).  Zero for any trace
    decoded from this program, and for traces shorter than two blocks.
    It is the signal {!Ripple_core.Pipeline} uses to decide whether a
    profile still describes the program it is about to instrument. *)

val kernel_fraction : Program.t -> t -> float
(** Fraction of executed blocks that are kernel code. *)
