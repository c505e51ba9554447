(** Global history reuse predictor (GHRP, Ajorpaz et al. 2018) — the only
    prior replacement policy designed for the I-cache/BTB.

    GHRP hashes the accessed line with a global history of recent fetch
    lines into a signature, and a bank of saturating counter tables
    predicts whether a cached line is dead.  Victim selection prefers
    predicted-dead lines (LRU among equals).

    §II-D of the Ripple paper notes a flaw: baseline GHRP grows more
    confident that a line is dead after every eviction even when the
    eviction was premature.  This is the paper's modified GHRP: it
    tracks recently evicted lines and, when one is re-demanded soon
    after eviction, retrains its signature towards alive. *)

val make : Policy.factory
