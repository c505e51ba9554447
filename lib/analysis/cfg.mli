(** The analysis' view of a program's control-flow graph, plus the
    structural well-formedness layer of the linter.

    The {e flow graph} used by every semantic pass extends the static
    successor relation ({!Ripple_isa.Basic_block.successors}) with the
    fall-through edge of call sites (call block → [return_to]): after a
    call returns, execution resumes at [return_to], so both the callee
    entry and the resumption point are real forward paths.  [Return]
    blocks remain sinks — return targets are resolved dynamically
    through the call stack, and modelling them context-insensitively
    would connect every function to every call site and drown the
    dataflow passes in infeasible paths (DESIGN.md, "Static
    verification").

    Passes that walk the graph backwards build their own transpose of
    {!flow_successors} over the blocks they care about.

    Structural checks ({!check}) operate on a raw block array so tests
    can probe deliberately corrupted inputs that {!Ripple_isa.Program.v}
    refuses to construct. *)

module Basic_block := Ripple_isa.Basic_block

val flow_successors : Basic_block.t -> int list
(** Static successors plus the [return_to] resumption edge of (direct
    and indirect) call terminators.  May contain out-of-range ids when
    the block is corrupt; {!check} flags those. *)

val check : entry:int -> ?aligned:bool array -> Basic_block.t array -> Finding.t list
(** Layer 1 of the linter: structural invariants.

    Errors: [entry] out of range; [blocks.(i).id <> i]; non-positive
    byte/instruction extents; successor or [return_to] targets out of
    range; blocks laid outside their privilege region
    ({!Ripple_isa.Program.user_base} / [kernel_base]); overlapping byte
    ranges; blocks with [aligned.(i)] set whose address is not
    {!Ripple_isa.Program.block_alignment}-aligned.

    Infos: blocks unreachable from [entry] in the flow graph (orphans;
    the generator legitimately emits landing blocks no static edge
    reaches).  Reachability is only judged when no dangling-edge or
    entry error was found — on a broken graph it would be noise. *)
