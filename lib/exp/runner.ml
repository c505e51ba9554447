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
  streams :
    ( string * int * string * string * string * Config.t,
      Ripple_cache.Access_stream.t * int array )
    Hashtbl.t;
      (* Recorded access streams in their compact packed form — one word
         per access — so memoizing them costs a small fraction of what
         boxed streams would. *)
}

let memo_key : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { workloads = Hashtbl.create 8; traces = Hashtbl.create 16; streams = Hashtbl.create 16 })

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

(* The prefetcher-shaped access stream of the eval trace, in packed form.
   Deterministic in its key (recording replays an LRU reference run), so
   several oracle cells over the same (app, input, length, prefetcher,
   config) share one recording. *)
let stream_of ~config ~backing (spec : Spec.t) ~trace ~program =
  let memo = Domain.DLS.get memo_key in
  let input = executor_input spec.Spec.input in
  let key =
    ( spec.Spec.app,
      spec.Spec.n_instrs,
      input.W.Executor.label,
      Pipeline.prefetch_name spec.Spec.prefetch,
      Ripple_util.Int_stream.backing_name backing,
      config )
  in
  match Hashtbl.find_opt memo.streams key with
  | Some s -> s
  | None ->
    let stream, pos =
      Simulator.record_stream_indexed_trace ~config ~backing ~program
        ~trace:(Simulator.Trace.Blocks trace)
        ~prefetcher:(Pipeline.prefetcher_of ~config spec.Spec.prefetch)
        ()
    in
    (* The position index is consulted only for the warm-up boundary
       search, so it is materialized; the stream itself — the big half —
       keeps whatever backing the caller chose. *)
    let s = (stream, Ripple_util.Int_stream.to_array pos) in
    Ripple_util.Int_stream.close pos;
    Hashtbl.add memo.streams key s;
    s

(* ----------------------------- one cell ------------------------------ *)

let run_spec ?(config = Config.default) ?(backing = Ripple_cache.Access_stream.Heap)
    ?sampling ?(shards = 1) (spec : Spec.t) =
  let workload = workload_of spec.Spec.app in
  let program = workload.W.Cfg_gen.program in
  let eval = trace_of spec.Spec.app ~n_instrs:spec.Spec.n_instrs spec.Spec.input in
  let warmup = Array.length eval / 2 in
  let prefetch = spec.Spec.prefetch in
  let prefetcher = Pipeline.prefetcher_of ~config prefetch in
  let policy_of name = Registry.factory ~seed:(Spec.prng_seed spec) name in
  (* Every cell gets a private observability context; the deterministic
     snapshot rides on the outcome so {!Report} can render it into the
     JSONL regardless of which domain ran the cell. *)
  let obs = Obs.Run.create () in
  match spec.Spec.kind with
  | Spec.Policy name ->
    let result =
      Obs.Span.with_span (Obs.Run.spans obs) "simulate" (fun () ->
          fst
            (Simulator.run_trace ~config ~warmup ~obs ?sampling ~program
               ~trace:(Simulator.Trace.Blocks eval) ~policy:(policy_of name) ~prefetcher ()))
    in
    { result; evaluation = None; analysis = None; metrics = Obs.Run.snapshot obs }
  | Spec.Ideal_cache ->
    let result =
      Obs.Span.with_span (Obs.Run.spans obs) "simulate" (fun () ->
          Simulator.ideal_cache ~config ~warmup ~program ~trace:eval ())
    in
    Simulator.observe_result obs result;
    { result; evaluation = None; analysis = None; metrics = Obs.Run.snapshot obs }
  | Spec.Oracle ->
    let stream = stream_of ~config ~backing spec ~trace:eval ~program in
    let result =
      Obs.Span.with_span (Obs.Run.spans obs) "simulate" (fun () ->
          if shards > 1 then
            Shard.oracle ~config ~shards ~backing ~warmup ~stream
              ~mode:(Pipeline.belady_mode_of prefetch) ~program ~trace:eval ~prefetcher ()
          else
            Simulator.oracle ~config ~warmup ~stream ~mode:(Pipeline.belady_mode_of prefetch)
              ~program ~trace:eval ~prefetcher ())
    in
    Simulator.observe_result obs result;
    { result; evaluation = None; analysis = None; metrics = Obs.Run.snapshot obs }
  | Spec.Ripple { policy; threshold } ->
    let train = trace_of spec.Spec.app ~n_instrs:spec.Spec.n_instrs Spec.Train in
    let oc =
      Pipeline.run ~obs
        {
          Pipeline.Options.default with
          config;
          threshold;
          prefetch;
          backing;
          sampling;
          eval = Some (Pipeline.Eval.v ~warmup ~trace:eval ~policy:(policy_of policy) ());
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

let run ?config ?backing ?sampling ?shards ?jobs ?(quiet = false) ?(retries = 0)
    ?max_failures specs =
  let specs = Array.of_list specs in
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
      match run_spec ?config ?backing ?sampling ?shards spec_k with
      | outcome -> (Done outcome, k + 1)
      | exception e ->
        let backtrace = String.trim (Printexc.get_backtrace ()) in
        if k < retries then attempt (k + 1)
        else begin
          Atomic.incr failures;
          (Failed { message = Printexc.to_string e; backtrace }, k + 1)
        end
    in
    let status, attempts = attempt 0 in
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
  let results = Pool.run ?jobs ~stop ~f specs in
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
