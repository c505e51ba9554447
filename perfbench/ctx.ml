(* What a workload run is given: the seed its inputs come from, how long
   to measure, the input size, where the CLI binary is and a scratch
   directory inside the checkout. *)

module Executor = Ripple_workloads.Executor

type size = Full | Tiny  (** [Tiny] is the self-test's size: seconds, not minutes *)

type t = {
  seed : int;
  seconds : float;
  size : size;
  cli : string;  (** the built ripple-sim executable *)
  run_dir : string;  (** scratch space for the serve workload's state *)
}

(* The seed reaches the program only through the generated inputs: each
   executor input keeps its load-generator shape (handler rotation, mix
   skew, phase shift) and takes an execution seed derived from the
   benchmark seed and a per-input salt. *)
let derive t salt = ((t.seed * 0x9E3779B1) + (salt * 0x85EBCA6B) + 0x27D4EB2F) land 0x3FFF_FFFF

let input t (base : Executor.input) ~salt = { base with Executor.exec_seed = derive t salt }

(* An index in [0, n) picked by the seed. *)
let pick t n = ((t.seed mod n) + n) mod n

(* Whether a run that started at [t0], and whose operations so far took
   [ops] seconds each, starts another.  It stops at the operation
   boundary nearest to [seconds], so a run measures [seconds] on average
   whatever one operation costs. *)
let another t ~t0 ops = Measure.now () -. t0 +. (Measure.median ops /. 2.0) < t.seconds

(* A run's operations, in order: what each returned, its wall seconds
   and the peak resident set while it ran, in MiB. *)
type 'a ops = { results : 'a list; seconds : float list; peak_mb : float list }

(* [f ()] with its wall seconds and the peak resident set while it ran,
   in MiB: the process's VmHWM is first lowered to its current resident
   set, so the peak is this call's own. *)
let measured f =
  Measure.reset_peak_rss ();
  let v, dt = Measure.time f in
  (v, dt, Measure.peak_rss_mb None)

(* Run [op] back to back for about [seconds] (at least once); [op]
   returns its result, its seconds and its peak ([measured] gives all
   three).  Each call starts after a full collection, untimed, so no
   operation pays for the garbage of the one before. *)
let timed_loop t op =
  let t0 = Measure.now () in
  let rec go ops =
    Gc.compact ();
    let ops = op () :: ops in
    if another t ~t0 (List.map (fun (_, dt, _) -> dt) ops) then go ops
    else
      let ops = List.rev ops in
      {
        results = List.map (fun (v, _, _) -> v) ops;
        seconds = List.map (fun (_, dt, _) -> dt) ops;
        peak_mb = List.map (fun (_, _, mb) -> mb) ops;
      }
  in
  go []

(* The child [forked] is waiting for, for [kill_child] to stop when the
   benchmark itself is interrupted. *)
let child = ref None

let kill_child () =
  Option.iter
    (fun pid ->
      child := None;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid : int * Unix.process_status) with Unix.Unix_error _ -> ())
    !child

(* [f ()] run in a child process forked from this one, its result
   marshalled back through a pipe.  Every call starts from this process's
   heap as it is now, so none runs on memory an earlier one left behind.
   Only for processes that never started a domain. *)
let forked (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    Sys.set_signal Sys.sigint Sys.Signal_default;
    let code =
      match f () with
      | v ->
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc v [];
        close_out oc;
        0
      | exception e ->
        Printf.eprintf "perfbench: forked operation failed: %s\n%!" (Printexc.to_string e);
        1
    in
    (* No at_exit: the parent's unflushed output is the parent's. *)
    Unix._exit code
  | pid ->
    child := Some pid;
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    child := None;
    (match (v, status) with
    | Some v, Unix.WEXITED 0 -> v
    | _ -> failwith "forked operation failed")

(* Set-ups per untraced run: set-up takes a tenth of a second and its
   time swings with the host, so its median needs many. *)
let setups = 15

(* Repeat a set-up [n] times and keep the last result, handing the
   others to [discard]; the median of the repeats is the run's set-up
   time.  Like the operations, each repeat starts after a full
   collection. *)
let repeat_setup ?(discard = ignore) n f =
  let rec go k acc =
    Gc.compact ();
    let v, dt = Measure.time f in
    if k = 1 then (v, Measure.median (dt :: acc))
    else begin
      discard v;
      go (k - 1) (dt :: acc)
    end
  in
  go n []

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
