(** Cache event counters.

    One record per simulated cache, updated by {!Cache}.  The distinction
    between demand and prefetch traffic, and between cold (compulsory)
    and replacement misses, feeds the paper's MPKI analyses (§II-D
    measures compulsory MPKI to explain why scan-oriented policies cannot
    help the I-cache).  The hinted-fill counters feed Ripple's
    replacement-coverage metric (§III-C). *)

type t = {
  mutable demand_accesses : int;
  mutable demand_misses : int;
  mutable demand_misses_cold : int;  (** first-ever reference to the line *)
  mutable prefetch_accesses : int;
  mutable prefetch_fills : int;  (** prefetches that missed and filled *)
  mutable evictions : int;  (** valid lines displaced by fills *)
  mutable replacement_decisions : int;
      (** fills that had to pick a victim: evictions plus fills into
          hint-invalidated ways (the denominators of coverage) *)
  mutable hinted_fills : int;
      (** fills that landed in a way freed by a Ripple hint — replacement
          decisions initiated by software (coverage numerator) *)
  mutable invalidate_hits : int;  (** hint executions that found the line *)
  mutable invalidate_misses : int;  (** hint executions to an absent line *)
  mutable demotes : int;
  mutable fill_bypasses : int;
      (** misses the policy chose not to install ([`Bypass] from
          [Policy.fill_decision]) — streaming-bypass traffic *)
}

val create : unit -> t
val reset : t -> unit

val total_accesses : t -> int

val mpki : t -> instructions:int -> float
(** Demand misses per kilo-instruction. *)

val demand_miss_ratio : t -> float

val coverage : t -> float
(** Fraction of replacement decisions initiated by Ripple invalidations
    ([hinted_fills / replacement_decisions]); 0 when no decisions. *)
