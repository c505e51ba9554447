(** The deterministic view of a run's observability state.

    A snapshot carries metric values and span {e structure} (path →
    occurrence count) but never wall-clock durations: everything in a
    snapshot is a pure function of the work performed, so the same
    experiment cell snapshots byte-identically whether it ran alone or
    on a 4-domain pool — the property the sweep JSONL [metrics] object
    is built on.  Wall times live only in {!Export.chrome_trace}. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { bounds : float array; counts : int array; sum : float; count : int }
  | Series of (int * float) array  (** (virtual time, value) samples *)

type t = {
  metrics : (string * value) list;  (** name-sorted *)
  spans : (string * int) list;  (** span path → closed count, path-sorted *)
}

val empty : t
val v : registry:Registry.t -> spans:Span.t -> t

val merge : t -> t -> t
(** Pointwise union: counters and histograms sum (histograms must agree
    on bounds), gauges take the right operand, series concatenate, span
    counts sum.  Associative with {!empty} as identity, so folding cell
    snapshots in submission order gives one deterministic sweep-level
    aggregate. *)

val to_json : t -> Ripple_util.Json.t
(** Deterministic: equal snapshots render byte-identically. *)

val to_openmetrics : t -> string
(** OpenMetrics text exposition, sorted by name: a [# TYPE] line per
    family (labeled cells — see {!Metric.labelled} — group under their
    family, one sample per label set), counter samples suffixed
    [_total], histograms as [_bucket{le=...}]/[_sum]/[_count], series as
    gauges holding their last sample, terminated by [# EOF].  Loadable
    by Prometheus-compatible scrapers; the [# TYPE] lines are the
    metric-name schema CI diffs against [docs/metrics.schema]. *)
