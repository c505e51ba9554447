(** RDIP: return-address-stack-directed instruction prefetching
    (Kolli, Saidi & Wenisch, MICRO 2013) — one of the history-based
    prefetchers the paper surveys (§I, §VI).

    RDIP observes that a program's instruction working set is strongly
    correlated with its call-stack context: it hashes the top of the
    return-address stack into a {e signature}, associates with each
    signature the set of cache lines missed while that signature was
    live, and prefetches that set as soon as the signature recurs
    (calls and returns both form new signatures).  The misses it learns
    from are those of the simulator front end's LRU reference L1I
    ({!Prefetcher.t.on_miss}), not of the cache under evaluation, so
    its prefetches, like every prefetcher's here, do not depend on the
    replacement policy.

    Compared to FDIP it needs no branch-predictor runahead, but it pays
    with a large signature table — the on-chip metadata cost the paper's
    Table I-style analysis holds against this prefetcher family.  The
    implementation here exists as a comparison point for the ablation
    bench; Ripple itself is prefetcher-agnostic. *)

module Program := Ripple_isa.Program

val create : program:Program.t -> unit -> Prefetcher.t
(** A 2048-signature table of 6 lines per signature. *)

val storage_bits : table_entries:int -> lines_per_signature:int -> int
(** Metadata accounting: each entry holds a tag plus
    [lines_per_signature] 26-bit line addresses. *)
