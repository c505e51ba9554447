(** Chrome trace-event export of a {!Run.t}.

    {!chrome_trace} renders Chrome [trace_event] JSON (the
    ["traceEvents"]-array format), loadable in [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto}.  Closed spans become complete
    (["ph": "X"]) duration events on pid 1 with microsecond timestamps
    relative to the recorder's epoch; metric series become counter
    (["ph": "C"]) events on pid 2, timestamped in {e virtual} time (their
    sample coordinate, e.g. the trace index), one track per series.  The
    run's deterministic snapshot renders as OpenMetrics text through
    {!Snapshot.to_openmetrics}. *)

val chrome_trace : Run.t -> string
(** The trace as one line of JSON, newline-terminated. *)

val write : path:string -> Run.t -> unit
(** Writes {!chrome_trace} to a temp file in [path]'s directory, then
    renames — the same atomic-write discipline as the sweep reports. *)
