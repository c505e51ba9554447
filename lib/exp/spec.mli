(** One cell of an experiment sweep, as pure data.

    A spec names everything a run depends on — application, trace
    length, evaluation input, PRNG seed, prefetcher, and what to run
    (a hardware policy, an ideal bound, or a Ripple configuration) — so
    that executing it is a pure function of the spec.  That purity is
    what lets the {!Runner} fan cells out over a domain pool and still
    promise results identical to a serial run: nothing about a cell's
    outcome depends on which domain ran it or in what order. *)

module Pipeline := Ripple_core.Pipeline

(** Which dynamic trace the cell is evaluated on. *)
type input =
  | Eval of int  (** evaluation input [#0..#3] of Fig. 13 (default [#0]) *)
  | Train  (** the profiling input — profile/evaluate on the same path *)

type kind =
  | Policy of string
      (** one hardware replacement policy, by registry name — ["drrip"]
          ({!Ripple_cache.Registry}).  Use the lowercase name (the CLI
          lowercases at parse time) so equal cells compare equal and
          the JSONL [policy] field records one stable spelling. *)
  | Ideal_cache  (** the Fig. 1 never-miss limit *)
  | Oracle  (** ideal replacement: MIN, or Demand-MIN under a prefetcher *)
  | Ripple of { policy : string; threshold : float }
      (** profile on the train input, instrument at [threshold], evaluate
          under [policy] (a registry name, like {!Policy}) *)

type t = {
  app : string;  (** application model name ({!Ripple_workloads.Apps.by_name}) *)
  n_instrs : int;  (** trace length in original instructions *)
  seed : int;  (** base seed; stochastic policies derive from {!prng_seed} *)
  input : input;
  prefetch : Pipeline.prefetch;
  kind : kind;
}

val v :
  ?n_instrs:int ->
  ?seed:int ->
  ?input:input ->
  ?prefetch:Pipeline.prefetch ->
  app:string ->
  kind ->
  t
(** Defaults: [n_instrs = 2_000_000], [seed = 1234], [input = Eval 0],
    [prefetch = Fdip]. *)

val compare : t -> t -> int
(** Total order over specs — the aggregation order of every report,
    independent of completion order. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Stable, human-readable cell key, e.g.
    ["cassandra/fdip/ripple:lru@0.55/n=4000000/i=eval0/s=1234"]. *)

val threshold : t -> float option

val prng_seed : t -> int
(** Deterministic per-cell seed: {!Ripple_util.Prng.seed_of_string} of
    {!to_string}, so two specs differing in any field draw independent
    random streams, and the same spec draws the same stream in every
    run, serial or parallel. *)

val perturb_seed : int -> attempt:int -> int
(** Seed for retry [attempt] of a cell whose base seed is the argument;
    [attempt = 0] is the identity.  Deterministic, so a retried sweep
    stays byte-identical across [--jobs]. *)

val to_fields : t -> (string * Ripple_util.Json.t) list
(** The spec's JSON object fields, for embedding into a larger record
    (the per-cell JSONL rows of {!Report}). *)

val to_json : t -> Ripple_util.Json.t
(** [Obj (to_fields t)]. *)
