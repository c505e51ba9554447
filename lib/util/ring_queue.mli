(** Bounded FIFO queue over a circular buffer.

    Used for the FDIP fetch-target queue and the GHRP history register,
    both of which are fixed-capacity hardware structures: pushing into a
    full queue either drops the push or overwrites the oldest entry,
    depending on the chosen semantics. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [create ~capacity ~dummy] is an empty queue holding at most
    [capacity] elements.  [dummy] initialises the backing store and is
    never observable.  Requires [capacity > 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push q x] enqueues [x] at the back; returns [false] (and does
    nothing) if the queue is full. *)

val push_overwrite : 'a t -> 'a -> unit
(** Like {!push} but evicts the oldest element when full. *)

val pop : 'a t -> 'a option
(** Dequeues the front element. *)

val peek : 'a t -> 'a option
(** Front element without removing it. *)

val pop_or : 'a t -> default:'a -> 'a
(** Like {!pop} but returns [default] when empty instead of wrapping in
    an option — the hot-loop variant; it never allocates. *)

val peek_or : 'a t -> default:'a -> 'a
(** Like {!peek} but returns [default] when empty; never allocates. *)

val clear : 'a t -> unit
(** Empties the queue (used on pipeline flush / branch mispredict). *)

val to_list : 'a t -> 'a list
(** Front-to-back contents. *)
