(** Replacement-policy interface.

    A policy instance owns the per-set replacement metadata of one cache.
    The cache core ({!Cache}) calls back on hits, fills, evictions,
    hint-invalidations and demotions; [victim] is consulted only when a
    fill finds its set full of valid lines, so policies never have to
    reason about invalid ways.

    [storage_bits] is the on-chip metadata budget of the policy for the
    instantiated geometry, following the accounting of the paper's
    Table I; it is what the Table I bench prints. *)

type fill_decision = [ `Install | `Bypass ]
(** What to do with a missing line: install it (the default for every
    classical policy) or bypass the cache entirely — the line is
    fetched but no way is allocated (streaming-bypass policies). *)

type t = {
  name : string;
  on_hit : set:int -> way:int -> Access.packed -> unit;
      (** A resident line was demand-referenced. *)
  on_fill : set:int -> way:int -> Access.packed -> unit;
      (** A line was installed into [way] (demand or prefetch fill). *)
  fill_decision : set:int -> Access.packed -> fill_decision;
      (** Consulted once per miss, before any way is chosen.  [`Bypass]
          serves the access without installing the line: no victim, no
          eviction, no [on_fill] — the cache core counts it in
          [Stats.fill_bypasses].  Policies that duel on misses must
          train here rather than in [on_fill], so bypassed misses still
          train. *)
  may_bypass : bool;
      (** Whether [fill_decision] can ever return [`Bypass].  Static
          analyses (the abstract cache interpretation) rely on this:
          their must-hit facts assume install-on-miss and are only
          sound for policies where this is [false]; always-miss facts
          hold either way. *)
  victim : set:int -> int;
      (** Way to evict from a full set. *)
  on_eviction : set:int -> way:int -> line:Ripple_isa.Addr.line -> unit;
      (** The chosen victim is leaving the cache (training hook). *)
  on_invalidate : set:int -> way:int -> unit;
      (** A Ripple hint dropped the line in [way]. *)
  demote : set:int -> way:int -> unit;
      (** A Ripple [Demote] hint: make [way] the preferred next victim
          without invalidating it (§IV, "Invalidation vs. reducing LRU
          priority"). *)
  storage_bits : int;
  duel : Dueling.t option;
      (** The policy's set-dueling component, if it has one — a typed
          telemetry channel: the simulator reads PSEL, per-flavour
          leader misses and selection flips off it for the
          [ripple_duel_*] metric families. *)
}

type factory = sets:int -> ways:int -> t
(** Policies are constructed per cache geometry. *)

val nop_access : set:int -> way:int -> Access.packed -> unit
(** Convenience no-op callback. *)

val nop_way : set:int -> way:int -> unit
val nop_evict : set:int -> way:int -> line:Ripple_isa.Addr.line -> unit

val nop_fill_decision : set:int -> Access.packed -> fill_decision
(** Always [`Install] — the behaviour of every policy that predates the
    hook, and the default for any policy without a bypass story. *)
