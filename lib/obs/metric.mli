(** Typed metric cells.

    Each cell is a plain mutable record — updating one is a field store
    (plus, for histograms, a bucket scan over a short immediate-int
    array), never an allocation — so instrumented hot paths keep the
    allocation profile PR 2 established.  Cells are created through a
    {!Registry}, which owns the name → cell mapping; the cell itself is
    what instrumented code holds on to, so the registry lookup happens
    once per run, not once per event. *)

type counter = {
  c_name : string;
  c_help : string;
  mutable count : int;
}
(** Monotone event count. *)

type gauge = {
  g_name : string;
  g_help : string;
  mutable value : float;
}
(** Last-write-wins instantaneous value. *)

type histogram = {
  h_name : string;
  h_help : string;
  bounds : float array;  (** ascending upper bucket bounds *)
  counts : int array;  (** [Array.length bounds + 1] cells; last = +Inf *)
  mutable sum : float;
  mutable observations : int;
}
(** Cumulative bucketed distribution. *)

type series = {
  s_name : string;
  s_help : string;
  mutable at : int array;  (** virtual timestamps (e.g. trace indices) *)
  mutable values : float array;
  mutable n : int;
}
(** Periodic samples over {e virtual} time (a deterministic coordinate
    such as the trace index), so sampled values are identical across
    pool sizes and machines; wall-clock never enters a series. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Adds the observation to the first bucket whose bound is >= the
    value (the overflow bucket when none is). *)

val sample : series -> at:int -> float -> unit
(** Appends one [(at, value)] point (amortised-O(1) array growth). *)

val series_points : series -> (int * float) array

(** {2 Labels}

    A labeled cell is an ordinary cell whose registry name carries an
    OpenMetrics label set: [name{key="value",...}].  The registry treats
    the whole string as the key, so each label combination is its own
    cell; {!Snapshot.to_openmetrics} groups cells by {!family_of} and
    emits one [# TYPE] line per family.  Convention: a family is either
    always labeled or never labeled — mixing breaks the name-sorted
    grouping. *)

val labelled : string -> (string * string) list -> string
(** [labelled name [(k, v); ...]] renders the labeled cell name
    [name\{k="v",...\}] with label values escaped per OpenMetrics
    (backslash, double quote, newline); an empty label list yields
    [name] unchanged. *)

val family_of : string -> string
(** The metric-family part of a (possibly labeled) cell name: everything
    before the first [{]. *)

val labels_of : string -> string
(** The label part including braces ([""] when unlabeled). *)
