(** L2/L3 memory hierarchy behind the L1 I-cache.

    Both levels run LRU (replacement innovation in the paper is confined
    to the L1I; §IV "We implement Ripple on the L1 I-cache").  [fetch]
    returns the level that served a missing L1I line and updates both
    levels' contents; prefetch-triggered fetches update contents too but
    the caller charges no cycles for them. *)

module Addr := Ripple_isa.Addr

type t

type served = L2 | L3 | Memory

val create : Config.t -> t

val fetch : t -> Addr.line -> served
(** Serve an L1I miss for [line]: probes L2 then L3, filling both on the
    way back (inclusive-ish behaviour). *)

val penalty : Config.t -> served -> int
(** Exposed cycles of a demand miss served at that level. *)

val save : t -> unit -> unit
(** Deep-copies both levels' state; the thunk restores it (see
    {!Ripple_cache.Cache.save}). *)
