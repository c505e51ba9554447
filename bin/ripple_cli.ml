(* ripple-sim: command-line front end to the library.

     ripple-sim apps
     ripple-sim simulate --app cassandra --prefetch fdip --policy lru
     ripple-sim ripple   --app verilator --prefetch none --threshold 0.55
     ripple-sim sweep    --apps cassandra,kafka --prefetch none,fdip --jobs 4
     ripple-sim lint     --apps drupal --json
     ripple-sim trace    cassandra --out trace.json --metrics metrics.txt
     ripple-sim chaos    --quick --json --out chaos.json

   Everything the subcommands do is a thin composition of the public
   library API; see examples/ for the same flows in code.  Shared
   argument converters live in {!Cli_args} — one policy/prefetch/app
   vocabulary for every subcommand. *)

module W = Ripple_workloads
module Cache = Ripple_cache
module Registry = Ripple_cache.Registry
module Simulator = Ripple_cpu.Simulator
module Pipeline = Ripple_core.Pipeline
module Obs = Ripple_obs
module Pt = Ripple_trace.Pt
module Program = Ripple_isa.Program
module Exp = Ripple_exp
module Chaos = Ripple_fault.Chaos

open Cmdliner

let setup app n_instrs =
  let workload = W.Cfg_gen.generate app in
  let eval = W.Executor.run workload ~input:W.Executor.eval_inputs.(0) ~n_instrs in
  (workload, eval, Array.length eval / 2)

let print_result label (r : Simulator.result) =
  Printf.printf "%-18s ipc=%.4f mpki=%.3f misses=%d (L2 %d / L3 %d / mem %d)\n" label
    r.Simulator.ipc r.Simulator.mpki r.Simulator.demand_misses r.Simulator.served_l2
    r.Simulator.served_l3 r.Simulator.served_memory

let write_metrics path snapshot =
  Cli_args.write_text path (Obs.Snapshot.to_openmetrics snapshot);
  Printf.printf "wrote %s\n" path

(* ------------------------------- apps ------------------------------- *)

let apps_cmd =
  let run () = List.iter (fun m -> Format.printf "%a@." W.App_model.pp m) W.Apps.all in
  Cmd.v (Cmd.info "apps" ~doc:"List the nine application models.") Term.(const run $ const ())

(* ----------------------------- simulate ----------------------------- *)

let simulate_cmd =
  let oracle_flag =
    Arg.(value & flag & info [ "oracle" ] ~doc:"Also run the ideal-replacement bound.")
  in
  let run app prefetch n_instrs pname oracle =
    let workload, eval, warmup = setup app n_instrs in
    let program = workload.W.Cfg_gen.program in
    let prefetcher = Pipeline.prefetcher_of prefetch in
    let policy = Registry.factory pname in
    let r = Simulator.run ~warmup ~program ~trace:eval ~policy ~prefetcher () in
    print_result (Printf.sprintf "%s+%s" (Pipeline.prefetch_name prefetch) pname) r;
    if oracle then begin
      let o =
        Simulator.oracle ~warmup ~mode:(Pipeline.belady_mode_of prefetch) ~program ~trace:eval
          ~prefetcher ()
      in
      print_result "ideal replacement" o
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one cache/prefetcher configuration over an application.")
    Term.(
      const run $ Cli_args.app_arg $ Cli_args.prefetch_arg $ Cli_args.instrs_arg
      $ Cli_args.policy_arg $ oracle_flag)

(* ------------------------------ ripple ------------------------------ *)

let ripple_cmd =
  let demote_flag =
    Arg.(value & flag & info [ "demote" ] ~doc:"Inject demote hints instead of invalidations.")
  in
  let random_flag =
    Arg.(
      value & flag & info [ "random" ] ~doc:"Underlying hardware policy: Random (Ripple-Random).")
  in
  let run app prefetch n_instrs threshold demote random =
    let workload, eval, warmup = setup app n_instrs in
    let program = workload.W.Cfg_gen.program in
    let profile = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
    let mode = if demote then Ripple_core.Injector.Demote else Ripple_core.Injector.Invalidate in
    let policy = if random then Cache.Random_policy.make ~seed:1234 else Cache.Lru.make in
    let oc =
      Pipeline.run
        {
          Pipeline.Options.default with
          threshold;
          mode;
          prefetch;
          eval = Some (Pipeline.Eval.v ~warmup ~trace:eval ~policy ());
        }
        ~source:program (Pipeline.Trace profile)
    in
    let analysis = oc.Pipeline.analysis in
    Printf.printf "windows=%d decisions=%d injected=%d\n" analysis.Pipeline.n_windows
      analysis.Pipeline.n_decisions analysis.Pipeline.injection.Ripple_core.Injector.injected;
    let baseline =
      Simulator.run ~warmup ~program ~trace:eval ~policy:Cache.Lru.make
        ~prefetcher:(Pipeline.prefetcher_of prefetch) ()
    in
    let ev = Option.get oc.Pipeline.evaluation in
    print_result "lru baseline" baseline;
    print_result (if random then "ripple-random" else "ripple-lru") ev.Pipeline.result;
    Printf.printf
      "speedup=%+.2f%% coverage=%.1f%% accuracy=%.1f%% static=%.2f%% dynamic=%.2f%%\n"
      (100.0 *. ((ev.Pipeline.result.Simulator.ipc /. baseline.Simulator.ipc) -. 1.0))
      (100.0 *. ev.Pipeline.coverage)
      (100.0 *. ev.Pipeline.accuracy)
      (100.0 *. ev.Pipeline.static_overhead)
      (100.0 *. ev.Pipeline.dynamic_overhead)
  in
  Cmd.v
    (Cmd.info "ripple" ~doc:"Profile, analyze, inject and evaluate Ripple on an application.")
    Term.(
      const run $ Cli_args.app_arg $ Cli_args.prefetch_arg $ Cli_args.instrs_arg
      $ Cli_args.threshold_arg $ demote_flag $ random_flag)

(* ------------------------------- sweep ------------------------------ *)

let sweep_cmd =
  let prefetches_arg =
    Arg.(
      value
      & opt (list Cli_args.prefetch_conv) [ Pipeline.Fdip ]
      & info [ "p"; "prefetch" ] ~docv:"PF,.." ~doc:"Prefetchers to sweep: none, nlp, fdip.")
  in
  let policies_arg =
    Arg.(
      value
      & opt (list Cli_args.policy_conv) [ "lru" ]
      & info [ "policies" ] ~docv:"POLICY,.." ~doc:Cli_args.policy_doc)
  in
  let oracle_flag =
    Arg.(value & flag & info [ "oracle" ] ~doc:"Include the ideal-replacement bound per cell.")
  in
  let ideal_flag =
    Arg.(value & flag & info [ "ideal-cache" ] ~doc:"Include the never-miss I-cache bound.")
  in
  let thresholds_arg =
    Arg.(
      value
      & opt (list float) []
      & info [ "ripple" ] ~docv:"T,.."
          ~doc:
            "Invalidation thresholds: adds one Ripple cell per threshold (instrumented with \
             the $(b,--ripple-policy) hardware policy).")
  in
  let ripple_policy_arg =
    Arg.(
      value
      & opt Cli_args.policy_conv "lru"
      & info [ "ripple-policy" ] ~docv:"POLICY"
          ~doc:"Hardware policy under Ripple instrumentation (default lru).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write one JSON object per cell to $(docv) (JSON lines, submission order).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1234 & info [ "seed" ] ~docv:"S" ~doc:"Base seed recorded in each spec.")
  in
  let quiet_flag =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-cell progress on stderr.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 0
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Retry a failing cell up to $(docv) times with a perturbed seed before recording \
             it as failed.")
  in
  let max_failures_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-failures" ] ~docv:"K"
          ~doc:
            "Circuit breaker: once $(docv) cells have failed, skip the rest of the sweep \
             (skipped cells are recorded as such in the JSONL output).")
  in
  let run apps prefetches policies oracle ideal thresholds ripple_policy n_instrs jobs out
      metrics seed quiet retries max_failures backing sampling shards geometry =
    let config = { Ripple_cpu.Config.default with Ripple_cpu.Config.l1i = geometry } in
    let specs =
      List.concat_map
        (fun (m : W.App_model.t) ->
          let app = m.W.App_model.name in
          List.concat_map
            (fun prefetch ->
              let v kind = Exp.Spec.v ~n_instrs ~seed ~prefetch ~app kind in
              List.map (fun p -> v (Exp.Spec.Policy p)) policies
              @ (if ideal then [ v Exp.Spec.Ideal_cache ] else [])
              @ (if oracle then [ v Exp.Spec.Oracle ] else [])
              @ List.map
                  (fun threshold -> v (Exp.Spec.Ripple { policy = ripple_policy; threshold }))
                  thresholds)
            prefetches)
        apps
    in
    let cells =
      Exp.Runner.run ~config ~backing ?sampling ~shards ?jobs ~quiet ~retries ?max_failures
        specs
    in
    Exp.Report.print_summary cells;
    (match out with
    | None -> ()
    | Some path ->
      Exp.Report.write_jsonl path cells;
      Printf.printf "wrote %s (%d cells)\n" path (List.length cells));
    (match metrics with
    | None -> ()
    | Some path -> write_metrics path (Exp.Report.merged_metrics cells));
    if List.exists (fun c -> Result.is_error (Exp.Runner.result c)) cells then exit 3
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run an experiment matrix (apps x prefetchers x policies/bounds/Ripple cells) over \
          a parallel domain pool.")
    Term.(
      const run $ Cli_args.apps_arg ~verb:"sweep" $ prefetches_arg $ policies_arg $ oracle_flag
      $ ideal_flag $ thresholds_arg $ ripple_policy_arg $ Cli_args.instrs_arg $ Cli_args.jobs_arg
      $ out_arg $ Cli_args.metrics_arg $ seed_arg $ quiet_flag $ retries_arg $ max_failures_arg
      $ Cli_args.backing_arg $ Cli_args.sampling_term $ Cli_args.shards_arg
      $ Cli_args.geometry_term)

(* ------------------------------- lint ------------------------------- *)

let lint_cmd =
  let module Lint = Ripple_analysis.Lint in
  let module Json = Ripple_util.Json in
  let demote_flag =
    Arg.(value & flag & info [ "demote" ] ~doc:"Inject demote hints instead of invalidations.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object per application.")
  in
  (* Lint needs only enough profile to drive the injector; the shared
     2M-instruction default would triple the run time for no extra
     findings. *)
  let lint_instrs_arg =
    Arg.(
      value
      & opt int 500_000
      & info [ "n"; "instrs" ] ~docv:"N" ~doc:"Profile-trace length in instructions.")
  in
  let run apps prefetch threshold demote json n_instrs geometry metrics =
    let mode = if demote then Ripple_core.Injector.Demote else Ripple_core.Injector.Invalidate in
    let config = { Ripple_cpu.Config.default with Ripple_cpu.Config.l1i = geometry } in
    (* One observed run across all apps: a "lint" span per app (the
       verifier's per-layer child spans hang off it via the pipeline)
       and one merged metric snapshot for --metrics. *)
    let obs = Obs.Run.create () in
    let results =
      List.map
        (fun (app : W.App_model.t) ->
          let workload = W.Cfg_gen.generate app in
          let program = workload.W.Cfg_gen.program in
          let profile = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
          let oc =
            Obs.Span.with_span (Obs.Run.spans obs) "lint" (fun () ->
                Pipeline.run ~obs
                  { Pipeline.Options.default with config; threshold; mode; verify = true; prefetch }
                  ~source:program (Pipeline.Trace profile))
          in
          (app.W.App_model.name, Option.get oc.Pipeline.analysis.Pipeline.lint))
        apps
    in
    if json then
      List.iter
        (fun (name, s) ->
          print_endline
            (Json.to_string (Json.Obj [ ("app", Json.String name); ("lint", Lint.to_json s) ])))
        results
    else
      List.iter (fun (name, s) -> Format.printf "@[<v>== %s ==@,%a@]@." name Lint.pp s) results;
    (match metrics with
    | None -> ()
    | Some path -> write_metrics path (Obs.Run.snapshot obs));
    let code = List.fold_left (fun acc (_, s) -> max acc (Lint.exit_code s)) 0 results in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify application CFGs and the hints Ripple injects: structural checks, \
          reachability, safe/harmful/redundant classification of every injected invalidation, \
          and an abstract cache interpretation (must/may/persistence) that proves hints safe \
          or harmful, bounds the static MPKI, and cross-checks the classifiers.  Exit status: \
          0 clean, 1 warnings, 2 errors.")
    Term.(
      const run $ Cli_args.apps_arg ~verb:"lint" $ Cli_args.prefetch_arg $ Cli_args.threshold_arg
      $ demote_flag $ json_flag $ lint_instrs_arg $ Cli_args.geometry_term
      $ Cli_args.metrics_arg)

(* ------------------------------- trace ------------------------------ *)

let trace_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the run's Chrome trace-event JSON to $(docv) (load in chrome://tracing or \
             Perfetto).")
  in
  let pt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pt" ] ~docv:"FILE"
          ~doc:
            "Also capture the profile as an encoded PT-style stream, verify its encode/decode \
             round trip and write it to $(docv).")
  in
  let run app prefetch n_instrs pname out metrics pt =
    let workload, eval, warmup = setup app n_instrs in
    let program = workload.W.Cfg_gen.program in
    let profile = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
    (match pt with
    | None -> ()
    | Some path ->
      let encoded = Pt.encode program profile in
      let decoded = Pt.decode program encoded in
      assert (decoded = profile);
      let oc = open_out_bin path in
      output_bytes oc encoded;
      close_out oc;
      Printf.printf "pt: blocks=%d encoded=%d bytes (%.3f bytes/block), roundtrip ok -> %s\n"
        (Array.length profile) (Bytes.length encoded)
        (Float.of_int (Bytes.length encoded) /. Float.of_int (Array.length profile))
        path);
    (* The full six-stage pipeline under one observed run: verify on so
       the lint stage contributes, eval on so the simulate stage (and
       the virtual-time IPC/MPKI series) appears in the trace. *)
    let obs = Obs.Run.create () in
    let outcome =
      Pipeline.run ~obs
        {
          Pipeline.Options.default with
          verify = true;
          prefetch;
          eval = Some (Pipeline.Eval.v ~warmup ~trace:eval ~policy:(Registry.factory pname) ());
        }
        ~source:program (Pipeline.Trace profile)
    in
    let spans = Obs.Span.paths (Obs.Run.spans obs) in
    Printf.printf "spans=%d metrics=%d\n"
      (List.fold_left (fun acc (_, n) -> acc + n) 0 spans)
      (List.length outcome.Pipeline.metrics.Obs.Snapshot.metrics);
    (match outcome.Pipeline.evaluation with
    | Some ev -> print_result "instrumented" ev.Pipeline.result
    | None -> ());
    (match out with
    | None -> ()
    | Some path ->
      Obs.Export.write ~path obs;
      Printf.printf "wrote %s\n" path);
    match metrics with
    | None -> ()
    | Some path -> write_metrics path outcome.Pipeline.metrics
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the full pipeline over an application with observability on and export the \
          span/metric record: Chrome trace-event JSON ($(b,--out)) and OpenMetrics text \
          ($(b,--metrics)).")
    Term.(
      const run $ Cli_args.app_pos_arg $ Cli_args.prefetch_arg $ Cli_args.instrs_arg
      $ Cli_args.policy_arg $ out_arg $ Cli_args.metrics_arg $ pt_arg)

(* ------------------------------- chaos ------------------------------ *)

let chaos_cmd =
  let module Json = Ripple_util.Json in
  let chaos_instrs_arg =
    Arg.(
      value
      & opt int 200_000
      & info [ "n"; "instrs" ] ~docv:"N" ~doc:"Trace length in instructions per cell.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int 20240
      & info [ "seed" ] ~docv:"S" ~doc:"Base seed; cells derive per-(app, fault) seeds.")
  in
  let quick_flag =
    Arg.(
      value
      & flag
      & info [ "quick" ]
          ~doc:
            "CI preset: 60k-instruction traces without a prefetcher.  Explicit $(b,--instrs) \
             / $(b,--prefetch) still win.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as one JSON object on stdout.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  let prefetch_opt_arg =
    Arg.(
      value
      & opt (some Cli_args.prefetch_conv) None
      & info [ "p"; "prefetch" ] ~docv:"PF"
          ~doc:"Prefetcher: none, nlp or fdip (default: fdip, or none under $(b,--quick)).")
  in
  let instrs_set_flag =
    (* Detect whether --instrs was given so --quick can lower the default
       without overriding an explicit request. *)
    Term.(
      const (fun n quick -> if quick && n = 200_000 then 60_000 else n)
      $ chaos_instrs_arg $ quick_flag)
  in
  let net_flag =
    Arg.(
      value
      & flag
      & info [ "net" ]
          ~doc:
            "Run the network-level matrix instead: a live serve daemon behind a seeded fault \
             proxy (torn frames, corrupted length prefixes, mid-frame disconnects, \
             duplicated and stalled frames), plus a kill -9 mid-capture recovery cell; \
             asserts every push completes and the session state is byte-equivalent to an \
             uninterrupted run.")
  in
  let run apps policy n_instrs seed jobs quick json out metrics prefetch net =
    let module Net_chaos = Ripple_fault.Net_chaos in
    if net then begin
      let app =
        match apps with
        | (m : W.App_model.t) :: _ -> m.W.App_model.name
        | [] -> "kafka"
      in
      let n_instrs = if quick && n_instrs = 200_000 then 30_000 else n_instrs in
      let timeout = if quick then 0.5 else 0.8 in
      let stall_delay = if quick then 1.2 else 2.0 in
      let report = Net_chaos.run ~app ~n_instrs ~seed ~timeout ~stall_delay () in
      let j = Net_chaos.report_to_json report in
      (match out with
      | None -> ()
      | Some path -> Cli_args.write_text path (Json.to_string j ^ "\n"));
      if json then print_endline (Json.to_string j) else Net_chaos.print_summary report;
      let code = Net_chaos.exit_code report in
      if code <> 0 then exit code
    end
    else begin
      let prefetch =
        match prefetch with
        | Some p -> p
        | None -> if quick then Pipeline.No_prefetch else Pipeline.Fdip
      in
      let apps = List.map (fun (m : W.App_model.t) -> m.W.App_model.name) apps in
      let report = Chaos.run ~apps ~n_instrs ~seed ~prefetch ~policy ?jobs () in
      let j = Chaos.report_to_json report in
      (match out with
      | None -> ()
      | Some path -> Cli_args.write_text path (Json.to_string j ^ "\n"));
      (match metrics with
      | None -> ()
      | Some path -> write_metrics path (Chaos.merged_metrics report));
      if json then print_endline (Json.to_string j) else Chaos.print_summary report;
      let code = Chaos.exit_code report in
      if code <> 0 then exit code
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the fault-injection matrix: every application under corrupted PT streams, \
          truncated captures and profile drift, asserting no crash, bounded degradation, and \
          the never-worse-than-no-hints guarantee.  With $(b,--net), stress the transport \
          instead: a live daemon behind a seeded fault proxy plus a kill -9 recovery check.  \
          Exit status: 0 clean, 1 contract violation, 2 crash.")
    Term.(
      const run $ Cli_args.apps_arg ~verb:"stress" $ Cli_args.policy_arg $ instrs_set_flag
      $ seed_arg $ Cli_args.jobs_arg $ quick_flag $ json_flag $ out_arg $ Cli_args.metrics_arg
      $ prefetch_opt_arg $ net_flag)

(* ------------------------------- serve ------------------------------ *)

let serve_cmd =
  let module Server = Ripple_serve.Server in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port_arg =
    Arg.(
      value
      & opt int 7400
      & info [ "port" ] ~docv:"PORT" ~doc:"Protocol listener port (0 picks an ephemeral one).")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt int 7401
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:"OpenMetrics scrape port (0 picks an ephemeral one).")
  in
  let window_arg =
    Cli_args.positive "--window"
      Arg.(
        value
        & opt int 400_000
        & info [ "window" ] ~docv:"BLOCKS" ~doc:"Rolling-profile capacity per app, in blocks.")
  in
  let reemit_arg =
    Arg.(
      value
      & opt int 0
      & info [ "reemit-every" ] ~docv:"BLOCKS"
          ~doc:
            "Also re-emit hints mid-capture every $(docv) freshly decoded blocks (0: re-emit \
             only on flush).")
  in
  let ready_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ready-file" ] ~docv:"FILE"
          ~doc:
            "Write \"<port> <metrics-port>\" to $(docv) once both listeners are bound — the \
             startup handshake for scripts driving ephemeral ports.")
  in
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Make sessions durable in $(docv): every flush writes an atomic snapshot, \
             in-flight chunks are journaled write-ahead, and a restart with the same \
             directory recovers every session — crash-only operation.")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Shed connections beyond $(docv) open at once (answered \"overloaded\").")
  in
  let max_sessions_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.max_sessions
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Refuse new app registrations beyond $(docv) sessions.")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt float Server.default_config.Server.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Reap connections silent for $(docv) seconds (0 disables the deadline).")
  in
  let run host port metrics_port window reemit_every threshold prefetch backing ready_file
      state_dir max_conns max_sessions idle_timeout =
    let config =
      {
        Server.default_config with
        host;
        port;
        metrics_port;
        window;
        reemit_every;
        options = { Pipeline.Options.default with degrade = true; threshold; prefetch; backing };
        ready_file;
        state_dir;
        max_conns;
        max_sessions;
        idle_timeout;
      }
    in
    Printf.printf "ripple-sim serve: %s port=%d metrics-port=%d window=%d reemit-every=%d%s\n%!"
      host port metrics_port window reemit_every
      (match state_dir with None -> "" | Some d -> " state-dir=" ^ d);
    Server.serve_forever (Server.create config)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the continuous-profiling daemon: accept chunked PT captures over a framed \
          socket protocol, maintain a rolling windowed profile per application, re-emit \
          hints through the degradation ladder as the profile drifts, and expose live \
          OpenMetrics on a scrape endpoint.  With $(b,--state-dir) the daemon is \
          crash-only: kill -9 it and a restart recovers every session from its snapshot \
          and journal; SIGTERM drains gracefully (snapshot all sessions, remove the ready \
          file, exit 0).")
    Term.(
      const run $ host_arg $ port_arg $ metrics_port_arg $ window_arg $ reemit_arg
      $ Cli_args.threshold_arg $ Cli_args.prefetch_arg $ Cli_args.backing_arg $ ready_file_arg
      $ state_dir_arg $ max_conns_arg $ max_sessions_arg $ idle_timeout_arg)

(* ------------------------------- push ------------------------------- *)

let push_cmd =
  let module Fault = Ripple_fault.Fault in
  let module Client = Ripple_serve.Client in
  let module Json = Ripple_util.Json in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon address.")
  in
  let port_arg =
    Arg.(value & opt int 7400 & info [ "port" ] ~docv:"PORT" ~doc:"Daemon protocol port.")
  in
  let chunk_arg =
    Cli_args.positive "--chunk"
      Arg.(
        value
        & opt int 4096
        & info [ "chunk" ] ~docv:"BYTES" ~doc:"Chunk size for streaming the capture.")
  in
  let fault_conv =
    let parse = function
      | "flip-tnt" -> Ok (Fault.Flip_tnt { flips = 32 })
      | "drop-tip" -> Ok (Fault.Drop_tip { count = 8 })
      | "garbage-tip" -> Ok (Fault.Garbage_tip { count = 8 })
      | "truncate-pt" -> Ok (Fault.Truncate_pt { keep = 0.6 })
      | s -> Error (`Msg (Printf.sprintf "unknown fault %S" s))
    in
    let print fmt f = Format.fprintf fmt "%s" (Fault.name f) in
    Arg.conv (parse, print)
  in
  let fault_arg =
    Arg.(
      value
      & opt (some fault_conv) None
      & info [ "fault" ] ~docv:"FAULT"
          ~doc:
            "Corrupt the encoded capture before pushing: flip-tnt, drop-tip, garbage-tip or \
             truncate-pt (default severities).")
  in
  let seed_arg =
    Arg.(value & opt int 1234 & info [ "seed" ] ~docv:"S" ~doc:"Fault-injection seed.")
  in
  let flushes_arg =
    Arg.(
      value
      & opt int 1
      & info [ "flushes" ] ~docv:"K" ~doc:"Push the capture $(docv) times, flushing after each.")
  in
  let retries_arg =
    Cli_args.positive "--retries"
      Arg.(
        value
        & opt int 8
        & info [ "retries" ] ~docv:"N"
            ~doc:"Attempts per capture for the resumable push (reconnect-and-resume).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Socket send/receive timeout per operation.")
  in
  let run app host port n_instrs chunk fault seed flushes retries timeout =
    let workload = W.Cfg_gen.generate app in
    let program = workload.W.Cfg_gen.program in
    let trace = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
    let data = Pt.encode program trace in
    let data = match fault with None -> data | Some f -> Fault.corrupt_pt ~seed f data in
    let name = app.W.App_model.name in
    for k = 1 to flushes do
      match
        Client.push_with_retries ~attempts:retries ~timeout ~seed:(seed + k) ~chunk ~host ~port
          ~app:name data
      with
      | Ok { Client.status; attempts_used } ->
        if attempts_used > 1 then
          Printf.eprintf "push: capture %d took %d attempts\n%!" k attempts_used;
        print_endline (Json.to_string status)
      | Error msg -> failwith ("push: " ^ msg)
    done
  in
  Cmd.v
    (Cmd.info "push"
       ~doc:
         "Capture an application's profile as an encoded PT stream (optionally \
          fault-injected) and stream it to a running $(b,serve) daemon in chunks, flushing \
          at the end; prints the daemon's status report per flush.  The push is \
          resumable: sequenced frames, at-least-once delivery with server-side dedup, and \
          reconnect-and-resume with backoff on any network fault.")
    Term.(
      const run $ Cli_args.app_pos_arg $ host_arg $ port_arg $ Cli_args.instrs_arg $ chunk_arg
      $ fault_arg $ seed_arg $ flushes_arg $ retries_arg $ timeout_arg)

let () =
  let info =
    Cmd.info "ripple-sim" ~version:"1.0.0"
      ~doc:"Profile-guided I-cache replacement (Ripple, ISCA 2021) simulator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            apps_cmd;
            simulate_cmd;
            ripple_cmd;
            sweep_cmd;
            lint_cmd;
            trace_cmd;
            chaos_cmd;
            serve_cmd;
            push_cmd;
          ]))
