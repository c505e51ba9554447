(** A reusable worklist solver for forward or backward dataflow over a
    join-semilattice (layer 4 substrate; DESIGN.md "Abstract cache
    analysis").

    The solver is direction-agnostic: it propagates facts from
    [entries] along the edges described by [preds].  A forward pass
    hands it the real predecessor lists; a backward pass hands it the
    transposed graph (successor lists) and reads [in_]/[out] with the
    roles swapped.

    Nodes never reached from an entry keep [None] — the implicit bottom
    element — so callers can distinguish "unreachable" from any real
    lattice value without the domain having to model ⊥.

    Termination: the domain must be a finite-height lattice and
    [transfer] monotone; the chaotic iteration then converges to the
    least fixpoint on its own. *)

module type DOMAIN = sig
  type t

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Least upper bound; must be associative, commutative, idempotent. *)
end

type stats = {
  iterations : int;  (** worklist pops *)
  visits : int;  (** transfer-function applications *)
}

module Make (D : DOMAIN) : sig
  type result = {
    in_ : D.t option array;
        (** per node: join of predecessor outputs (and the entry fact);
            [None] = unreachable *)
    out : D.t option array;  (** per node: [transfer] of [in_] *)
    stats : stats;
  }

  val solve :
    n:int ->
    entries:(int * D.t) list ->
    preds:int list array ->
    transfer:(int -> D.t -> D.t) ->
    unit ->
    result
  (** Solve the flow system

      {[ in(v)  = entry(v) ⊔ ⨆ { out(p) | p ∈ preds(v) }
         out(v) = transfer v in(v) ]}

      by chaotic iteration from the [entries].  Deterministic: the
      worklist is FIFO and seeded in the given entry order, so equal
      inputs produce identical iteration counts and results.
      Out-of-range predecessor indices are ignored, as {!Cfg.check}
      reports them. *)
end
