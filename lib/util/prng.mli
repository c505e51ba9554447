(** Deterministic pseudo-random number generation.

    All stochastic components of the simulator (workload executors, the
    Random replacement policy, tie-breaking) draw from an explicit
    generator state so that every experiment is reproducible from a seed.
    The implementation is SplitMix64 (for seeding) feeding xoshiro256**,
    which has a 256-bit state and passes BigCrush. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed].
    Equal seeds always yield equal streams. *)

val seed_of_string : string -> int
(** FNV-1a over the bytes of a cell key, each step masked to 30 bits:
    the per-cell seed of sweeps and chaos runs, so two cells whose keys
    differ draw independent streams and the same cell draws the same
    stream in every run. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the two
    streams are statistically independent.  Used to give each workload
    component its own stream so adding draws to one component does not
    perturb another. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val geometric : t -> p:float -> int
(** [geometric t ~p] draws the number of failures before the first success
    of a Bernoulli([p]) process; mean [(1-p)/p].  Requires [0 < p <= 1]. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] draws from a Zipf distribution over [\[0, n)] with
    exponent [s] via inverse-CDF on a precomputed table-free approximation
    (rejection-inversion).  Skewed towards small indices — used to model
    hot/cold code regions. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
