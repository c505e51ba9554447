(** Set-associative cache core with pluggable replacement and support for
    Ripple's [invalidate]/[demote] hint instructions.

    Fill priority on a miss: a cold (never-used) way first, then a way
    freed by a Ripple hint (counted as a software-initiated replacement
    decision — the coverage numerator of §III-C), and only then the
    policy's victim (a hardware replacement decision).

    Prefetch semantics follow the usual front-end model: a prefetch that
    hits is a no-op; a prefetch that misses installs the line tagged as a
    prefetch fill.

    On every miss the policy's [fill_decision] is consulted before a way
    is chosen; [`Bypass] serves the access without installing the line
    (counted in [Stats.fill_bypasses]; bypassed prefetches are not
    prefetch fills). *)

module Addr := Ripple_isa.Addr

type t

type result = Hit | Miss

val create : geometry:Geometry.t -> policy:Policy.factory -> unit -> t
val stats : t -> Stats.t

val duel : t -> Dueling.t option
(** The policy's set-dueling component, when it has one — read-only
    telemetry for the [ripple_duel_*] metric families. *)

val may_bypass : t -> bool
(** Whether the policy's [fill_decision] can ever bypass — static
    must-hit reasoning is unsound for such caches. *)

val access_packed : t -> Access.packed -> result
(** Performs a reference, filling on a miss.  [Hit]/[Miss] reflects
    presence before any fill.  Allocation-free: packed accesses flow to
    the policy callbacks without ever being boxed. *)

val access : t -> Access.t -> result
(** [access t acc = access_packed t (Access.pack acc)] — boxed
    convenience wrapper for tests and small drivers. *)

val contains : t -> Addr.line -> bool
(** Presence test with no side effects. *)

val invalidate : t -> Addr.line -> unit
(** Executes a Ripple [Invalidate] hint: drops the line from this cache
    only (no coherence action, mirroring the proposed instruction). *)

val demote : t -> Addr.line -> unit
(** Executes a Ripple [Demote] hint: asks the policy to make the line the
    preferred next victim. *)

val flush : t -> unit
(** Empties the cache and replacement state is left to age out naturally;
    statistics are preserved. *)

val save : t -> unit -> unit
(** [save t] deep-copies the complete cache state — contents, way
    states, statistics, cold-miss history and policy metadata — and
    returns a thunk that restores it.  The restore may run any number of
    times: checkpointed warm-up rewinds to the same snapshot before
    every sampled window. *)

val resident_lines : t -> Addr.line list
(** All currently valid lines (diagnostics and tests). *)

val occupancy : t -> set:int -> int
(** Number of valid ways in a set. *)
