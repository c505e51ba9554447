module W = Ripple_workloads
module Registry = Ripple_cache.Registry
module Config = Ripple_cpu.Config
module Simulator = Ripple_cpu.Simulator
module Pipeline = Ripple_core.Pipeline
module Obs = Ripple_obs

type outcome = {
  result : Simulator.result;
  evaluation : Pipeline.evaluation option;
  analysis : Pipeline.analysis option;
  metrics : Obs.Snapshot.t;
}

type gc_stats = {
  allocated_words : float;
  minor_words : float;
  major_words : float;
  top_heap_words : int;
}

type failure = { message : string; backtrace : string }

type status = Done of outcome | Failed of failure | Skipped of string

type cell = {
  spec : Spec.t;
  status : status;
  elapsed : float;
  gc : gc_stats;
  attempts : int;
}

let result cell =
  match cell.status with
  | Done o -> Ok o
  | Failed f -> Error f.message
  | Skipped reason -> Error (Printf.sprintf "skipped: %s" reason)

let no_gc_stats =
  { allocated_words = 0.0; minor_words = 0.0; major_words = 0.0; top_heap_words = 0 }

(* ---------------------- per-domain workload memo --------------------- *)

(* Workload generation and trace execution are deterministic, so caching
   them is purely an optimisation; each domain owns a private memo (DLS),
   which keeps the cross-domain state immutable without a lock.  A
   domain running several cells of the same app regenerates nothing. *)

type memo = {
  workloads : (string, W.Cfg_gen.t) Hashtbl.t;
  traces : (string * int * string, int array) Hashtbl.t;
}

let memo_key : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { workloads = Hashtbl.create 8; traces = Hashtbl.create 16 })

let workload_of app =
  let memo = Domain.DLS.get memo_key in
  match Hashtbl.find_opt memo.workloads app with
  | Some w -> w
  | None ->
    let model =
      match W.Apps.by_name app with
      | Some m -> m
      | None ->
        invalid_arg
          (Printf.sprintf "Runner: unknown application %S (known: %s)" app
             (String.concat ", " (List.map (fun m -> m.W.App_model.name) W.Apps.all)))
    in
    let w = W.Cfg_gen.generate model in
    Hashtbl.add memo.workloads app w;
    w

let executor_input = function
  | Spec.Train -> W.Executor.train
  | Spec.Eval i ->
    if i < 0 || i >= Array.length W.Executor.eval_inputs then
      invalid_arg (Printf.sprintf "Runner: no evaluation input #%d" i);
    W.Executor.eval_inputs.(i)

let trace_of app ~n_instrs (input : Spec.input) =
  let memo = Domain.DLS.get memo_key in
  let input = executor_input input in
  let key = (app, n_instrs, input.W.Executor.label) in
  match Hashtbl.find_opt memo.traces key with
  | Some t -> t
  | None ->
    let t = W.Executor.run (workload_of app) ~input ~n_instrs in
    Hashtbl.add memo.traces key t;
    t

(* --------------------------- recordings ---------------------------- *)

(* A cell's L1I access sequence is a function of its app, trace and
   prefetcher — never of its policy — so the cells that share those
   share one front-end recording of the evaluation trace. *)
let group_key (spec : Spec.t) =
  (spec.Spec.app, spec.Spec.n_instrs, spec.Spec.input, spec.Spec.prefetch)

(* Whether a cell can replay its group's recording: every kind that
   simulates the L1I does. *)
let replays (spec : Spec.t) =
  match spec.Spec.kind with
  | Spec.Policy _ | Spec.Oracle | Spec.Ripple _ -> true
  | Spec.Ideal_cache -> false

let record ~config ~backing (spec : Spec.t) =
  let program = (workload_of spec.Spec.app).W.Cfg_gen.program in
  let eval = trace_of spec.Spec.app ~n_instrs:spec.Spec.n_instrs spec.Spec.input in
  Simulator.record ~config ~backing ~program ~trace:(Simulator.Trace.Blocks eval)
    ~prefetcher:(Pipeline.prefetcher_of ~config spec.Spec.prefetch)
    ()

(* ----------------------------- one cell ------------------------------ *)

(* One cell in the calling domain.  [recording], when given, hands out
   the group's recording, borrowed: the cell never closes it.  Without
   it a policy cell streams the front end into the back end, and an
   oracle or Ripple cell records the trace for itself alone. *)
let run_cell ~config ~backing ~recording (spec : Spec.t) =
  let workload = workload_of spec.Spec.app in
  let program = workload.W.Cfg_gen.program in
  let eval = trace_of spec.Spec.app ~n_instrs:spec.Spec.n_instrs spec.Spec.input in
  let trace = Simulator.Trace.Blocks eval in
  let warmup = Array.length eval / 2 in
  let prefetch = spec.Spec.prefetch in
  let policy_of name = Registry.factory ~seed:(Spec.prng_seed spec) name in
  (* Every cell gets a private observability context; the deterministic
     snapshot rides on the outcome so {!Report} can render it into the
     JSONL regardless of which domain ran the cell. *)
  let obs = Obs.Run.create () in
  let simulate f = Obs.Span.with_span (Obs.Run.spans obs) "simulate" f in
  match spec.Spec.kind with
  | Spec.Policy name ->
    let policy = policy_of name in
    let result =
      match recording with
      | Some recording ->
        let recording = recording () in
        simulate (fun () -> Simulator.replay ~config ~warmup ~obs ~program ~trace ~policy recording)
      | None ->
        simulate (fun () ->
            fst
              (Simulator.run_trace ~config ~warmup ~obs ~program ~trace ~policy
                 ~prefetcher:(Pipeline.prefetcher_of ~config prefetch)
                 ()))
    in
    { result; evaluation = None; analysis = None; metrics = Obs.Run.snapshot obs }
  | Spec.Ideal_cache ->
    let result = simulate (fun () -> Simulator.ideal_cache ~config ~warmup ~program ~trace:eval ()) in
    Simulator.observe_result obs result;
    { result; evaluation = None; analysis = None; metrics = Obs.Run.snapshot obs }
  | Spec.Oracle ->
    let oracle recording =
      simulate (fun () ->
          Simulator.replay_oracle ~config ~warmup ~mode:(Pipeline.belady_mode_of prefetch) ~program
            ~trace:eval recording)
    in
    let result =
      match recording with
      | Some recording -> oracle (recording ())
      | None ->
        let own = record ~config ~backing spec in
        Fun.protect ~finally:(fun () -> Simulator.Recording.close own) (fun () -> oracle own)
    in
    Simulator.observe_result obs result;
    { result; evaluation = None; analysis = None; metrics = Obs.Run.snapshot obs }
  | Spec.Ripple { policy; threshold } ->
    let policy = policy_of policy in
    let train = trace_of spec.Spec.app ~n_instrs:spec.Spec.n_instrs Spec.Train in
    let recording = Option.map (fun recording -> recording ()) recording in
    let oc =
      Pipeline.run ~obs
        {
          Pipeline.Options.default with
          config;
          threshold;
          prefetch;
          backing;
          eval = Some (Pipeline.Eval.v ~warmup ?recording ~trace:eval ~policy ());
        }
        ~source:program (Pipeline.Trace train)
    in
    let ev = Option.get oc.Pipeline.evaluation in
    {
      result = ev.Pipeline.result;
      evaluation = Some ev;
      analysis = Some oc.Pipeline.analysis;
      metrics = oc.Pipeline.metrics;
    }

(* ------------------------------ the pool ----------------------------- *)

let progress_lock = Mutex.create ()

let breaker_reason = "circuit breaker: failure budget exhausted"

(* One group's recording: made by the first of its cells to ask for it,
   closed once the last cell that uses it has finished. *)
type shared = {
  lock : Mutex.t;
  mutable recording : Simulator.Recording.t option;
  mutable users : int;  (* cells of the group that replay it, still to finish *)
}

let run ?(config = Config.default) ?(backing = Ripple_cache.Access_stream.Heap) ?jobs
    ?(quiet = false) ?(retries = 0) ?max_failures specs =
  let specs = Array.of_list specs in
  (* Built before the pool starts and only read by the workers; the
     mutable part of each entry is under its lock. *)
  let groups = Hashtbl.create 16 in
  Array.iter
    (fun spec ->
      if replays spec then
        match Hashtbl.find_opt groups (group_key spec) with
        | Some g -> g.users <- g.users + 1
        | None ->
          Hashtbl.add groups (group_key spec)
            { lock = Mutex.create (); recording = None; users = 1 })
    specs;
  (* A recording pays only when two cells read it: a cell alone in its
     group runs as if nothing were shared, and holds no recording for
     the length of its run. *)
  Hashtbl.filter_map_inplace (fun _ g -> if g.users > 1 then Some g else None) groups;
  (* Which cells share is decided here, once: [recording_of] is [Some]
     exactly for the cells counted in a group's [users]. *)
  let recording_of spec =
    match Hashtbl.find_opt groups (group_key spec) with
    | Some g when replays spec ->
      Some
        ( g,
          fun () ->
            Mutex.protect g.lock (fun () ->
                match g.recording with
                | Some r -> r
                | None ->
                  let r = record ~config ~backing spec in
                  g.recording <- Some r;
                  r) )
    | _ -> None
  in
  let close g =
    Option.iter Simulator.Recording.close g.recording;
    g.recording <- None
  in
  let release g =
    Mutex.protect g.lock (fun () ->
        g.users <- g.users - 1;
        if g.users = 0 then close g)
  in
  let total = Array.length specs in
  let done_count = Atomic.make 0 in
  let failures = Atomic.make 0 in
  (* The breaker is polled per claim: once the failure budget is spent,
     unstarted cells are skipped.  Failure outcomes themselves are
     deterministic per cell; which cells a tripped breaker reaches in
     time is not, when [jobs > 1] (documented in {!Pool.run}). *)
  let stop =
    match max_failures with
    | None -> fun () -> false
    | Some limit -> fun () -> Atomic.get failures >= limit
  in
  let f spec =
    let shared = recording_of spec in
    let t0 = Unix.gettimeofday () in
    let g0 = Gc.quick_stat () in
    (* Bounded retry with seed perturbation: a deterministic failure
       fails every attempt identically, while a seed-sensitive corner
       (e.g. a stochastic policy tripping an edge case) gets fresh
       randomness.  The emitted cell always carries the original spec. *)
    let rec attempt k =
      let spec_k =
        if k = 0 then spec
        else { spec with Spec.seed = Spec.perturb_seed spec.Spec.seed ~attempt:k }
      in
      match run_cell ~config ~backing ~recording:(Option.map snd shared) spec_k with
      | outcome -> (Done outcome, k + 1)
      | exception e ->
        let backtrace = String.trim (Printexc.get_backtrace ()) in
        if k < retries then attempt (k + 1)
        else begin
          Atomic.incr failures;
          (Failed { message = Printexc.to_string e; backtrace }, k + 1)
        end
    in
    let status, attempts =
      Fun.protect
        ~finally:(fun () -> Option.iter (fun (g, _) -> release g) shared)
        (fun () -> attempt 0)
    in
    let g1 = Gc.quick_stat () in
    let elapsed = Unix.gettimeofday () -. t0 in
    (* Words this domain allocated while the cell ran; promoted words
       would be double-counted (they appear in both minor and major
       totals), so they are subtracted. *)
    let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
    let major_words = g1.Gc.major_words -. g0.Gc.major_words in
    let gc =
      {
        allocated_words =
          minor_words +. major_words -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
        minor_words;
        major_words;
        top_heap_words = g1.Gc.top_heap_words;
      }
    in
    let k = Atomic.fetch_and_add done_count 1 + 1 in
    if not quiet then begin
      let tag = match status with Done _ -> "" | Failed _ -> " FAILED" | Skipped _ -> "" in
      Mutex.lock progress_lock;
      Printf.eprintf "[exp] %d/%d %s %.1fs%s\n%!" k total (Spec.to_string spec) elapsed tag;
      Mutex.unlock progress_lock
    end;
    (status, elapsed, gc, attempts)
  in
  (* Cells the breaker skipped, or the pool lost, never release their
     group: close whatever is still open once the pool is done. *)
  let results =
    Fun.protect
      ~finally:(fun () -> Hashtbl.iter (fun _ g -> Mutex.protect g.lock (fun () -> close g)) groups)
      (fun () -> Pool.run ?jobs ~stop ~f specs)
  in
  Array.to_list
    (Array.map2
       (fun spec r ->
         match r with
         | Some (Ok (status, elapsed, gc, attempts)) -> { spec; status; elapsed; gc; attempts }
         | Some (Error e) ->
           (* [f] catches its own exceptions; the pool guard is a belt
              for failures outside the retry loop (e.g. out-of-memory). *)
           {
             spec;
             status = Failed { message = e; backtrace = "" };
             elapsed = 0.0;
             gc = no_gc_stats;
             attempts = 0;
           }
         | None ->
           {
             spec;
             status = Skipped breaker_reason;
             elapsed = 0.0;
             gc = no_gc_stats;
             attempts = 0;
           })
       specs results)

let find cells spec = List.find_opt (fun c -> Spec.equal c.spec spec) cells
