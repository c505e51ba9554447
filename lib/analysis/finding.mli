(** Lint findings: what the static verifier reports.

    A finding pins one defect (or observation) to a block and/or cache
    line, carries a machine-stable [code], and a severity drawn from a
    three-level taxonomy:

    - [Error] — the program or its instrumentation is broken: simulating
      it would silently corrupt results (dangling control flow,
      overlapping layout, an invalidation that converts hits to misses).
    - [Warning] — suspicious but not result-corrupting: redundant
      invalidations, hints that are pure overhead.
    - [Info] — observations surfaced for context only, e.g. blocks no
      static edge reaches (the CFG generator legitimately emits such
      orphans).

    Findings are plain data; rendering (text and JSON) lives here so the
    CLI and the pipeline verify gate agree byte-for-byte. *)

module Addr := Ripple_isa.Addr

type severity = Info | Warning | Error

val severity_rank : severity -> int
(** [Info] < [Warning] < [Error]; used for exit codes and sorting. *)

(** Machine-stable defect codes.  The constructor name doubles as the
    JSON [code] field, in lower snake case. *)
type code =
  | Entry_out_of_range
  | Id_mismatch
  | Nonpositive_extent  (** block with [bytes <= 0] or [n_instrs <= 0] *)
  | Dangling_successor
  | Dangling_return  (** call/indirect-call [return_to] out of range *)
  | Region_violation  (** block laid outside its privilege's text region *)
  | Overlapping_blocks
  | Misaligned_block  (** alignment requested but address not aligned *)
  | Unreachable_block
  | Hint_outside_footprint  (** hint operand line never part of the text *)
  | Harmful_invalidation
  | Redundant_invalidation
  | Classifier_disagreement
      (** the path-search classifier and the abstract-interpretation
          proofs contradict each other on one hint — one of them is
          unsound, so the result cannot be trusted *)

type t = {
  severity : severity;
  code : code;
  block : int option;  (** block id the finding anchors to *)
  line : Addr.line option;  (** cache line involved, for hint findings *)
  message : string;
}

val v : severity -> code -> ?block:int -> ?line:Addr.line -> string -> t

val max_severity : t list -> severity option
(** [None] on an empty list. *)

val to_json : t -> Ripple_util.Json.t
val pp : Format.formatter -> t -> unit
