(** Whole-program representation: the "binary" Ripple profiles and
    rewrites.

    A program is a dense array of {!Basic_block.t} laid out in two
    contiguous address regions (user and kernel text).  Hint injection
    ({!with_hints}) is modelled as layout-preserving: the injected
    instructions are assumed to land in the alignment padding after
    their block, so line/set mappings are stable across injection (the
    remapper returned for API symmetry is the identity).  Their static
    size is still reported ({!static_bytes}, Fig. 11) and their dynamic
    execution is charged by the simulator. *)

type t

val user_base : Addr.t
(** Start of the user text region. *)

val kernel_base : Addr.t
(** Start of the kernel text region. *)

val block_alignment : int
(** Blocks are packed; blocks flagged as function entries by the builder
    are aligned to this many bytes. *)

val v : entry:int -> Basic_block.t array -> aligned:bool array -> t
(** [v ~entry blocks ~aligned] lays the blocks out (user region first,
    then kernel), assigning addresses in id order.  [blocks.(i).id] must
    equal [i]; the [addr] fields are overwritten by layout.  [aligned.(i)]
    requests {!block_alignment} for block [i]. *)

val entry : t -> int
val n_blocks : t -> int
val block : t -> int -> Basic_block.t
val blocks : t -> Basic_block.t array
(** The underlying array; treat as read-only. *)

val aligned : t -> bool array
(** Per-block alignment requests as passed to {!v} (a fresh copy).
    Blocks with the flag set must sit on {!block_alignment}-byte
    addresses — the layout invariant the static verifier
    ({!Ripple_analysis.Lint}) re-checks. *)

val line_table : t -> Addr.line array array
(** Per block id, the I-cache lines the block touches ({!Basic_block.lines}
    as an array).  Built on the first call and shared by every program
    {!with_hints} derives from it, since injection keeps the layout.
    Treat as read-only. *)

val iter : (Basic_block.t -> unit) -> t -> unit

val block_at : t -> Addr.t -> Basic_block.t option
(** Block whose byte range contains the address (used by the PT decoder
    to resolve TIP packets).  Logarithmic in the number of blocks. *)

val static_bytes : t -> int
(** Total code bytes including injected hints. *)

val static_instrs : t -> int
(** Total static instructions including injected hints. *)

val static_hints : t -> int
(** Total injected hint instructions. *)

val footprint_lines : t -> int
(** Number of distinct I-cache lines the whole text occupies. *)

val layout_fingerprint : t -> int
(** FNV-1a hash of the layout every injected line operand depends on:
    entry, block count, and each block's (address, bytes, instruction
    count, privilege, JIT flag).  Injected hints are excluded, so an
    instrumented binary fingerprints identically to the binary its
    profile was collected on.  This is the artifact {!Ripple_core.Pipeline}
    stores with a profile and re-checks before applying stale hints: a
    rebuild that moves code produces a different fingerprint. *)

val relocate : t -> line_shift:int -> t
(** [relocate t ~line_shift] shifts every block address by
    [line_shift * Addr.line_size] bytes — the layout drift of a rebuild
    that inserts or removes whole cache lines of code upstream.  Block
    ids, sizes and control flow are unchanged; only the line/set mapping
    (and hence {!layout_fingerprint}) moves.  Used by the fault-injection
    harness to collect profiles on a layout the evaluated binary no
    longer has. *)

val with_hints : t -> hints:Basic_block.hint list array -> t * (Addr.t -> Addr.t)
(** [with_hints p ~hints] returns a program in which block [i] carries
    [hints.(i)], plus the (identity) old→new address remapper — see the
    module comment on layout preservation. *)
