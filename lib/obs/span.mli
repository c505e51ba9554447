(** Structured wall-clock spans with parent/child nesting.

    A recorder holds one span stack (the pipeline is single-threaded per
    run; concurrent cells each own a recorder).  Spans are identified by
    name, and a span's {e path} is the ["/"]-joined chain of its open
    ancestors — ["pipeline/inject"] — which is what exports group by.

    The clock is [Unix.gettimeofday]; readings are clamped to be
    monotone non-decreasing, so a stepped system clock can shorten a
    span to zero but never make it negative.  Durations are inherently
    nondeterministic and are therefore {e excluded} from {!Snapshot}
    views — only structure (paths, counts, nesting) crosses into
    determinism-sensitive output; wall times surface solely through
    {!Export.chrome_trace}. *)

type t

type closed = {
  path : string;  (** "/"-joined ancestry, e.g. ["run/simulate"] *)
  name : string;
  depth : int;  (** 0 for roots *)
  seq : int;  (** open order, 0-based *)
  start_s : float;
  stop_s : float;
}

val create : unit -> t

val epoch : t -> float
(** The recorder's creation time — the trace's [ts = 0]. *)

val enter : t -> string -> unit

val exit : t -> unit
(** Closes the innermost open span; raises [Invalid_argument] when none
    is open. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [enter]/[exit] bracket; the span is closed even when the thunk
    raises. *)

val open_spans : t -> int
(** Currently open (entered, not yet exited) spans. *)

val opened_total : t -> int
(** Spans ever entered; equals [List.length (closed t) + open_spans t]. *)

val closed : t -> closed list
(** In open ([seq]) order. *)

val paths : t -> (string * int) list
(** Closed-span occurrence count per path, name-sorted — the
    deterministic structural view {!Snapshot} embeds. *)
