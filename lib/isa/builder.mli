(** Imperative program builder.

    Used by tests, examples and the synthetic CFG generator to assemble a
    {!Program.t}.  Blocks are allocated with fresh dense ids; terminators
    may be patched after allocation so forward control-flow edges can be
    expressed naturally. *)

type t

val create : unit -> t

val block :
  t ->
  ?privilege:Basic_block.privilege ->
  ?jit:bool ->
  ?aligned:bool ->
  ?n_instrs:int ->
  bytes:int ->
  term:Basic_block.terminator ->
  unit ->
  int
(** Allocates a block and returns its id.  [bytes] is the code size;
    [n_instrs] defaults to [max 1 (bytes / 4)] (a 4-byte mean instruction,
    x86-ish).  [aligned] marks a function entry for 16-byte alignment. *)

val set_term : t -> int -> Basic_block.terminator -> unit
(** Patches the terminator of an already-allocated block. *)

val straight_line : t -> bytes_per_block:int -> n:int -> unit -> int * int
(** [straight_line b ~bytes_per_block ~n ()] allocates a chain of [n]
    fall-through user-mode, non-JIT blocks and returns
    [(first_id, last_id)].  The last block gets a placeholder [Halt]
    terminator the caller should patch. *)

val finish : t -> entry:int -> Program.t
(** Lays out and freezes the program.  Every terminator target must be a
    valid allocated block id. *)
