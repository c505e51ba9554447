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

val drrip : ?psel_bits:int -> ?throttle:int -> ?spacing:int -> unit -> Policy.factory
(** Dynamic RRIP (Jaleel et al. 2010): set-dueling between SRRIP
    insertion and bimodal (thrash-resistant) insertion, with a PSEL
    counter arbitrating for follower sets.  [throttle] is the bimodal
    rate (1-in-[throttle] fills insert long, default 32); [psel_bits]
    (default 10) and [spacing] (default 16) are the {!Dueling}
    geometry.  The defaults reproduce the historical inline
    implementation bit for bit.
    @raise Invalid_argument if [throttle < 1]. *)

val ship : Policy.factory
(** SHiP: signature-based hit prediction (Wu et al., MICRO 2011) — one
    of the learned data-cache policies the paper's related work surveys
    (§VI).  The signature is the fill's hashed PC (for the I-cache, its
    line address) into a 4096-entry table; fills whose signature
    predicts "no re-reference" insert at distant RRPV, SRRIP's insertion
    made signature-adaptive.  Instruction lines are almost all
    re-referenced, so the predictor saturates towards "re-used" and the
    policy collapses into SRRIP. *)

val trrip : ?table_bits:int -> ?hot:int -> unit -> Policy.factory
(** TRRIP: temperature-based RRIP for instruction caches (Mehta et al.
    2025; PAPERS.md).  The published policy maps profile-derived code
    temperature onto RRIP insertion positions; this online rendition
    learns the temperature in hardware with the reuse predictor.  Hot
    PCs insert near-MRU (RRPV 1), cold PCs eviction-first, the rest at
    SRRIP's long position — and a {!Dueling} component duels this
    insertion against plain SRRIP insertion, so the policy never loses
    more than its leader sets when the temperature signal is wrong.
    [table_bits] sizes the temperature table at [2^table_bits] entries
    (default 12); [hot] is the counter value at or above which a PC
    counts as hot (default 2 of a 0..3 range).
    @raise Invalid_argument if [table_bits] is outside [4..20] or [hot]
    outside [1..3]. *)

val ship_sb : ?bypass:bool -> ?throttle:int -> ?stream_window:int -> unit -> Policy.factory
(** SHiP-lite with streaming bypass, the hardware-budget SHiP of the
    ChampSim replacement championships: a 6-bit PC signature indexes a
    64-entry outcome table (never-reused signatures insert
    eviction-first, proven-reused ones near-MRU), the middle ground
    duels SRRIP against bimodal insertion, and a per-set stride detector
    opens a short streaming window during which fills from dead
    signatures bypass the cache ([Policy.fill_decision]).  [bypass]
    (default [true]) enables the bypass path — [false] degrades the
    policy to SHiP-lite over DRRIP insertion; [throttle] is the bimodal
    rate (default 32); [stream_window] (default 8) is how many misses a
    detected stream keeps the window open.
    @raise Invalid_argument if [throttle] or [stream_window] < 1. *)
