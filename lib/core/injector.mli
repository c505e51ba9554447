(** Link-time hint injection (§III-C).

    Materialises cue-block decisions as [invalidate] (or [demote])
    instructions appended to their cue blocks, in one
    {!Ripple_isa.Program.with_hints} rewrite.  Injection is modelled as
    layout-preserving (the hints sit in the padding after their block),
    so the victim lines the profile named are already the operands of
    the instrumented layout and the returned remap is the identity.
    Blocks flagged as JIT code
    are skipped by default: their instruction addresses are not stable
    across executions, the reason the HHVM applications cap below 50 %
    coverage in Fig. 9. *)

module Program := Ripple_isa.Program
module Addr := Ripple_isa.Addr

type mode = Invalidate | Demote

(** One hint actually placed, with the decision evidence that justified
    it.  This is the provenance trail the static verifier
    ({!Ripple_analysis.Lint}) quotes when it flags a hint: [probability]
    is the selected conditional probability P(evict victim | exec
    block), [windows] the eviction-window support behind it.  [line] is
    the operand as written into the instrumented binary. *)
type placement = {
  block : int;
  line : Addr.line;
  probability : float;
  windows : int;
}

type stats = {
  injected : int;  (** hints actually placed *)
  skipped_jit : int;  (** decisions dropped because the cue block is JIT *)
  skipped_cap : int;  (** decisions dropped by the per-block cap *)
  blocks_touched : int;
  placements : placement list;
      (** per-hint provenance, ordered by block id then descending
          probability (the within-block injection order) *)
}

val default_max_hints_per_block : int

val inject :
  ?mode:mode ->
  ?skip_jit:bool ->
  ?max_hints_per_block:int ->
  program:Program.t ->
  decisions:Cue_block.decision list ->
  unit ->
  Program.t * (Addr.t -> Addr.t) * stats
(** Returns the instrumented program, the old→new address remap, and
    injection statistics.  When a block attracts more decisions than the
    cap, the highest-probability ones win (each extra hint is straight
    static and dynamic overhead, §IV Figs. 11–12). *)
