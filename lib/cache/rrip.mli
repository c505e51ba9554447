(** The re-reference interval prediction (RRIP) family on one kernel.

    Every policy here keeps a 2-bit re-reference prediction value (RRPV)
    per line: a hit promotes the line to 0, the victim is a line at the
    distant RRPV (3), aging the set until one appears, and a Ripple
    invalidate or demote moves the line to distant.  The policies differ
    only in the RRPV a fill inserts at, built from two shared parts: a
    reuse predictor (a table of 2-bit counters indexed by a hashed fill
    PC, trained by whether lines are re-referenced before eviction) and
    DRRIP's bimodal throttle.  Duelling members train their {!Dueling}
    component on every miss, in [fill_decision].

    §II-D explains why this family brings nothing for I-cache traffic:
    compulsory/scan traffic is rare there, so fresh code lines pay an
    unnecessary eviction penalty, and data-center code neither scans nor
    thrashes in the cyclic-reuse sense DRRIP detects. *)

val srrip : Policy.factory
(** Static RRIP (Jaleel et al. 2010): every fill inserts at the long
    RRPV (2) and is promoted only on re-use. *)

val drrip : Policy.factory
(** Dynamic RRIP (Jaleel et al. 2010): set-dueling between SRRIP
    insertion and bimodal (thrash-resistant) insertion, with the
    {!Dueling} PSEL counter arbitrating for follower sets.  Bimodal
    insertion puts 1 in 32 fills at the long RRPV, the rest at distant.
    This reproduces the historical inline implementation bit for
    bit. *)

val ship : Policy.factory
(** SHiP: signature-based hit prediction (Wu et al., MICRO 2011) — one
    of the learned data-cache policies the paper's related work surveys
    (§VI).  The signature is the fill's hashed PC (for the I-cache, its
    line address) into a 4096-entry table; fills whose signature
    predicts "no re-reference" insert at distant RRPV, SRRIP's insertion
    made signature-adaptive.  Instruction lines are almost all
    re-referenced, so the predictor saturates towards "re-used" and the
    policy collapses into SRRIP. *)

val trrip : Policy.factory
(** TRRIP: temperature-based RRIP for instruction caches (Kao et al.
    2025; PAPERS.md).  The published policy maps profile-derived code
    temperature onto RRIP insertion positions; this online rendition
    learns the temperature in hardware with the reuse predictor, a
    4096-entry table.  Hot PCs (counter 2 or 3 of 0..3) insert near-MRU
    (RRPV 1), cold PCs (counter 0) eviction-first, the rest at SRRIP's
    long position — and a {!Dueling} component duels this insertion
    against plain SRRIP insertion, so the policy never loses more than
    its leader sets when the temperature signal is wrong. *)

val ship_sb : Policy.factory
(** SHiP-lite with streaming bypass, the hardware-budget SHiP of the
    ChampSim replacement championships: a 6-bit PC signature indexes a
    64-entry outcome table (never-reused signatures insert
    eviction-first, proven-reused ones near-MRU), the middle ground
    duels SRRIP against DRRIP's bimodal insertion, and a per-set stride
    detector opens an 8-miss streaming window during which fills from
    dead signatures bypass the cache ([Policy.fill_decision]). *)
