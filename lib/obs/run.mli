(** The per-run observability context: one {!Registry} plus one
    {!Span} recorder, created together and threaded through a pipeline
    run (or one experiment cell).  There is deliberately no global
    context — sharing happens by passing the value, which is what keeps
    concurrent cells independent and their snapshots deterministic. *)

type t

val create : unit -> t
val registry : t -> Registry.t
val spans : t -> Span.t

val snapshot : t -> Snapshot.t
(** The deterministic view: metric values plus span structure, no
    durations (see {!Snapshot}). *)
