(** Hawkeye / Harmony replacement (Jain & Lin 2016, 2018).

    Hawkeye replays Belady's optimal policy on sampled access history
    (OPTgen occupancy vectors) and trains a PC-indexed predictor that
    classifies the source of each access as cache-friendly or
    cache-averse; averse lines are inserted eviction-first.  This is
    Harmony, the prefetch-aware refinement: usage intervals that end in
    a prefetch need not be cached (Demand-MIN), so their PC trains
    towards averse.

    [~ehc:true] adds the Expected-Hit-Count victim refinement
    (Vakil-Ghahani et al. 2018): hits per resident line are counted (up
    to 7), a PC-indexed table learns each source's expected hit count on
    eviction, and victim selection breaks highest-RRPV ties towards the
    line with the fewest expected *remaining* hits.  A {!Dueling}
    component arbitrates plain vs. refined victim selection per set.

    §II-D explains why this family cannot help the I-cache: an
    instruction PC maps to exactly one line, whose behaviour mixes
    friendly and averse phases, so the predictor collapses to "almost
    everything friendly" and the policy degenerates to LRU — which is
    what this implementation reproduces. *)

val make : ehc:bool -> Policy.factory
(** [make ~ehc:false] is the [hawkeye] registry entry, [make ~ehc:true]
    [ehc-hawkeye]. *)

val stats_friendly_fraction : unit -> float
(** Fraction of predictor lookups since the last [make] that returned
    cache-friendly — the paper reports > 99 % for I-cache traffic.
    Diagnostic; reset when a new policy instance is created. *)
