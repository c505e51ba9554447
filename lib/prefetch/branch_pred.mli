(** Branch prediction structures backing FDIP.

    A gshare conditional-direction predictor, a direct-mapped branch
    target buffer for indirect targets, and a return-address stack.  FDIP
    inherits its prefetch accuracy from these: direct unconditional
    branches are always predicted right (easy-to-prefetch lines), while
    low-bias conditionals and polymorphic indirect branches mispredict —
    the paper's hard-to-prefetch lines (§II-C Observation #2). *)

module Gshare : sig
  type t

  val create : unit -> t
  (** 12-bit global history, 4096-entry 2-bit counter table. *)

  val predict : t -> pc:int -> bool
  (** Predicted taken? *)

  val train : t -> pc:int -> taken:bool -> unit
  (** Updates the counter table and shifts the history register. *)

  val accuracy : t -> float
  (** Running prediction accuracy (correct / trained); diagnostics. *)

  val save : t -> unit -> unit
  (** Deep-copies the predictor state; the thunk restores it. *)
end

module Btb : sig
  type t

  val create : unit -> t
  (** Direct-mapped, 8192 entries. *)

  val predict : t -> pc:int -> int option
  (** Last observed target for this branch, if the entry matches. *)

  val predict_id : t -> pc:int -> int
  (** Like {!predict} but returns [-1] when the entry does not match —
      the runahead-loop variant; it never allocates. *)

  val train : t -> pc:int -> target:int -> unit

  val save : t -> unit -> unit
  (** Deep-copies the BTB contents; the thunk restores them. *)
end

module Ras : sig
  type t

  val create : ?depth:int -> unit -> t
  (** Default depth 32; deeper calls wrap and corrupt the oldest entry,
      as in hardware. *)

  val push : t -> int -> unit
  val pop : t -> int option

  val pop_id : t -> int
  (** Like {!pop} but returns [-1] when empty (block ids are [>= 0]);
      never allocates. *)

  val copy_into : src:t -> dst:t -> unit
  (** Overwrites [dst] with [src]'s state (runahead resynchronisation on
      a pipeline flush). *)

  val save : t -> unit -> unit
  (** Deep-copies the stack; the thunk restores it. *)
end
