(** Reusable set-dueling substrate (Qureshi et al., "Adaptive insertion
    policies", 2007).

    Two flavours, [A] and [B], compete: a sparse fixed subset of sets
    leads each flavour, a saturating PSEL counter counts leader-set
    misses (an [A]-leader miss votes for [B] being better and vice
    versa — here, per DRRIP convention, an [A]-leader miss increments
    PSEL and [B] wins while PSEL is above its midpoint), and follower
    sets adopt the winner.  DRRIP, TRRIP and SHiP-SB all instantiate
    this one component instead of carrying private leader/PSEL logic.

    The leader spacing (16 sets) and the 10-bit PSEL are the constants
    DRRIP has always used, so porting it onto this substrate is
    byte-identical (pinned by a test). *)

type t

type role = Leader_a | Leader_b | Follower

val make : sets:int -> t
(** One leader per flavour in each of the first [max 1 (sets/16)]
    aligned groups of 16 sets: set [16k] leads [A], set [16k + 8] leads
    [B].  PSEL starts at its midpoint. *)

val role : t -> set:int -> role

val train_miss : t -> set:int -> unit
(** Record a miss in [set]: an [A]-leader miss increments PSEL
    (saturating), a [B]-leader miss decrements it (floored at 0),
    follower misses train nothing.  Also maintains the flip counter. *)

val selects_b : t -> set:int -> bool
(** Which flavour [set] should use right now: leaders are pinned to
    their own flavour; followers pick [B] iff PSEL is above its
    midpoint. *)

val psel : t -> int

val psel_bits : int
(** PSEL's width: 10 bits, saturating at [1023]. *)

val a_misses : t -> int
(** Misses observed in flavour-[A] leader sets since creation. *)

val b_misses : t -> int

val flips : t -> int
(** How often the follower selection changed — a high rate means the
    duel never settles. *)

val storage_bits : t -> int
(** Hardware cost of the component itself: the PSEL counter.  (Leader
    membership is an address decode, not storage.) *)

val save : t -> unit -> unit
(** [save t] snapshots PSEL and the telemetry counters; the returned
    thunk restores them.  Policies must compose this into their own
    [Policy.save] so sampled simulation's checkpoint rewind restores
    the duel along with the replacement state. *)
