(** Network-level chaos: drive a live serve daemon through a seeded
    fault proxy and assert the crash-only contract end to end.

    Each fault cell forks a real daemon, forks a proxy that mangles the
    client->server stream with one {!Net_fault} injection, and runs the
    resumable push through it; the cell passes when the push completes
    and the daemon's session state is indistinguishable from a run that
    saw no fault at all (same status report, same profile digest).  The
    final cells are harsher: they kill -9 the daemon mid-capture (once,
    then twice) and restart it on the same state directory, asserting
    the recovered, resumed session is byte-equivalent to an
    uninterrupted one.

    Exit semantics mirror {!Chaos}: 0 clean, 1 state loss (push done but
    state diverged), 2 crash (push failed, daemon died badly, or the
    harness itself broke). *)

type report

val run :
  ?app:string ->
  ?n_instrs:int ->
  ?seed:int ->
  ?timeout:float ->
  ?stall_delay:float ->
  unit ->
  report
(** Runs every {!Net_fault.t} class, then the two kill -9 recovery
    cells, over a PT capture of [app] (default kafka, 40 k
    instructions).  [timeout] (default 0.8 s) is the pusher's reply
    timeout; [stall_delay] (default 2 s) is how long the stall fault
    holds its frame.  Cells are deterministic in [seed], so the report
    is byte-stable across runs. *)

val report_to_json : report -> Ripple_util.Json.t
val print_summary : report -> unit

val exit_code : report -> int
(** 2 if any cell crashed, 1 if any lost state, else 0. *)
