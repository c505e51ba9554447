(** Chrome trace-event export of a {!Run.t}.

    {!chrome_sink} renders Chrome [trace_event] JSON (the
    ["traceEvents"]-array format), loadable in [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto}.  Closed spans become complete
    (["ph": "X"]) duration events on pid 1 with microsecond timestamps
    relative to the recorder's epoch; metric series become counter
    (["ph": "C"]) events on pid 2, timestamped in {e virtual} time (their
    sample coordinate, e.g. the trace index), one track per series.  The
    run's deterministic snapshot renders as OpenMetrics text through
    {!Snapshot.to_openmetrics}. *)

type sink = {
  name : string;  (** ["chrome-trace"] *)
  extension : string;  (** conventional file extension, e.g. [".json"] *)
  render : Run.t -> string;
}

val chrome_sink : sink

val write : sink -> path:string -> Run.t -> unit
(** Renders to a temp file in [path]'s directory, then renames — the
    same atomic-write discipline as the sweep reports. *)
