(** Least-recently-used replacement.

    The baseline policy of every experiment in the paper.  [demote] moves
    a line to the eviction-first position, implementing the §IV
    "reducing LRU priority" variant of Ripple's hint. *)

val make : Policy.factory
