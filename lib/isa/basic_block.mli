(** Basic blocks: the unit of Ripple's analysis and injection.

    A basic block is a maximal straight-line instruction sequence ended by
    a single control transfer.  Blocks carry the metadata Ripple needs:
    byte size (to enumerate touched I-cache lines), instruction count (for
    static/dynamic overhead accounting), privilege level (user vs. kernel
    code, §IV "Trace collection"), a JIT flag (HHVM-style applications
    re-use instruction addresses for just-in-time compiled code, which
    defeats link-time injection — §IV "Replacement-Coverage"), and any
    invalidation hints injected by Ripple. *)

type privilege = User | Kernel

type terminator =
  | Fallthrough of int  (** unconditional fall-through to block id *)
  | Jump of int  (** direct unconditional jump *)
  | Cond of { taken : int; fallthrough : int }  (** conditional branch *)
  | Indirect of int array  (** indirect jump; the static target set *)
  | Call of { callee : int; return_to : int }  (** direct call *)
  | Indirect_call of { callees : int array; return_to : int }
  | Return
  | Halt  (** end of simulated execution *)

type hint =
  | Invalidate of Addr.line
      (** The paper's proposed [invalidate] instruction: drop the line
          from the local L1 I-cache only, no coherence traffic. *)
  | Demote of Addr.line
      (** §IV "Invalidation vs. reducing LRU priority": move the line to
          the eviction-first position of the underlying policy instead of
          invalidating it outright. *)

val hint_line : hint -> Addr.line
(** The cache line a hint operates on. *)

val hint_bytes : int
(** Encoded size of one injected hint instruction (address formation plus
    a CLDemote-class opcode). *)

type t = {
  id : int;  (** dense index into the owning program *)
  addr : Addr.t;  (** start address assigned by layout *)
  bytes : int;  (** original code bytes, excluding injected hints *)
  n_instrs : int;  (** original instruction count *)
  privilege : privilege;
  jit : bool;
  term : terminator;
  hints : hint array;  (** Ripple-injected hints, empty before injection *)
}

val total_bytes : t -> int
(** Code bytes including injected hints.  Reported as static footprint
    (Fig. 11); it does not affect addressing — see {!lines}. *)

val total_instrs : t -> int
(** Instruction count including injected hints. *)

val lines : t -> Addr.line list
(** Ordered I-cache lines touched when the block executes.  Injection is
    modelled as layout-preserving — hint instructions are assumed to be
    placed in the alignment padding that follows the block, so they do
    not shift downstream addresses or line/set mappings (DESIGN.md
    records this simplification; their execution cost and static size
    are still charged). *)

val successors : t -> int list
(** All statically-known successor block ids ([Return] and [Halt] have
    none; returns are resolved dynamically via the call stack). *)

val is_conditional : t -> bool
val is_indirect : t -> bool
(** Whether the terminator's target is resolved indirectly (indirect
    jumps/calls and returns) — the hard-to-prefetch cases for a
    branch-predictor-guided prefetcher (§II-C, Observation #2). *)
