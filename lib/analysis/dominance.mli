(** Dominator trees over the block flow graph.

    Implementation: the Cooper–Harvey–Kennedy iterative algorithm —
    reverse-postorder sweeps intersecting predecessor dominators until
    fixpoint ("A Simple, Fast Dominance Algorithm").  On the reducible,
    mostly-structured CFGs the generator emits it converges in two or
    three sweeps, and the tree doubles as the redundancy witness for
    {!Invalidation_check}: a hint is only ever reported redundant
    against an invalidation that {e dominates} it.

    The module is graph-agnostic: callers hand in a successor function
    over dense int nodes.  {!of_blocks} wires the instance the
    classifier needs: forward dominance from the program entry. *)

module Basic_block := Ripple_isa.Basic_block

type t

val compute : n:int -> entry:int -> succs:(int -> int list) -> t
(** Dominator tree of the graph [{0..n-1}] with edges [succs].
    Out-of-range successors are ignored; nodes unreachable from [entry]
    have no dominators ({!idom} is [None], {!dominates} is [false]). *)

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry and unreachable nodes. *)

val is_reachable : t -> int -> bool

val dominates : t -> dom:int -> int -> bool
(** Reflexive: [dominates t ~dom:x x] holds for reachable [x]. *)

val of_blocks : entry:int -> Basic_block.t array -> t
(** Forward dominance under {!Cfg.flow_successors}. *)

