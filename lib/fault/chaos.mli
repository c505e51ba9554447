(** The chaos harness: the fault matrix run end-to-end.

    For each (application, fault) cell the harness profiles the app on
    the train input, pushes the profile through the fault injector, runs
    the degradation-aware pipeline ({!Ripple_core.Pipeline.run} with
    [degrade = true] and an evaluation request), evaluates the
    instrumented binary on the clean evaluation trace, and checks the
    contract:

    - nothing may crash (a raised exception anywhere in the cell is a
      [Crashed] verdict, exit code 2);
    - every cell reports a salvage ratio and a degradation level;
    - the chosen level must match the fault's {!Fault.expectation};
    - a cell degraded to hints-off must match the uninstrumented
      baseline IPC on the same trace — the never-worse guarantee.

    Cells are deterministic in [(app, fault, seed)]; apps fan out over
    the domain pool. *)

module Pipeline := Ripple_core.Pipeline

type outcome = {
  degrade : Pipeline.Degrade.t;  (** ladder decision and its evidence *)
  pt_errors : int;  (** decode errors survived while reading the profile *)
  injected : int;  (** hints in the shipped binary *)
  baseline_ipc : float;  (** uninstrumented run on the eval trace *)
  instrumented_ipc : float;  (** instrumented run on the same trace *)
  violations : string list;  (** contract breaches; empty = cell passes *)
  metrics : Ripple_obs.Snapshot.t;
      (** deterministic metric snapshot of the cell's pipeline run *)
}

type status = Ran of outcome | Crashed of string

type cell = { app : string; fault : Fault.t; expectation : Fault.expectation; status : status }
type report = { cells : cell list; crashed : int; violations : int }

val run :
  ?apps:string list ->
  ?faults:Fault.t list ->
  ?n_instrs:int ->
  ?seed:int ->
  ?prefetch:Pipeline.prefetch ->
  ?policy:string ->
  ?jobs:int ->
  unit ->
  report
(** Runs the matrix (defaults: all nine apps × {!Fault.matrix},
    200k instructions, FDIP, LRU) on the Table II machine
    ({!Ripple_cpu.Config.default}). *)

val exit_code : report -> int
(** 2 if any cell crashed, 1 if any contract violation, else 0. *)

val merged_metrics : report -> Ripple_obs.Snapshot.t
(** All ran cells' snapshots folded together ({!Ripple_obs.Snapshot.merge})
    in cell order — deterministic across [jobs], since cells are ordered
    (app, fault) regardless of scheduling. *)

val report_to_json : report -> Ripple_util.Json.t
val print_summary : report -> unit
