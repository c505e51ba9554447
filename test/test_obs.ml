(* The observability layer: metric cells, registry, span recorder,
   deterministic snapshots, exports, and the Pipeline.run façade's
   span/metric contract. *)

module Obs = Ripple_obs
module W = Ripple_workloads
module Cache = Ripple_cache
module Core = Ripple_core
module Exp = Ripple_exp
module Json = Ripple_util.Json

let n_instrs = 60_000

(* ----------------------------- metrics ------------------------------ *)

let test_metric_cells () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg ~help:"a counter" "c" in
  Obs.Metric.incr c;
  Obs.Metric.add c 4;
  Alcotest.(check int) "counter accumulates" 5 c.Obs.Metric.count;
  let g = Obs.Registry.gauge reg "g" in
  Obs.Metric.set g 2.5;
  Obs.Metric.set g 1.5;
  Alcotest.(check (float 0.0)) "gauge keeps last" 1.5 g.Obs.Metric.value;
  let h = Obs.Registry.histogram reg ~bounds:[ 1.0; 10.0 ] "h" in
  List.iter (Obs.Metric.observe h) [ 0.5; 5.0; 50.0; 10.0 ];
  Alcotest.(check (list int))
    "bucket counts (first bound wins, inclusive)"
    [ 1; 2; 1 ]
    (Array.to_list h.Obs.Metric.counts);
  let s = Obs.Registry.series reg "s" in
  for at = 0 to 40 do
    Obs.Metric.sample s ~at (Float.of_int at)
  done;
  Alcotest.(check int) "series keeps all samples" 41 (Array.length (Obs.Metric.series_points s));
  Alcotest.(check bool)
    "same name returns the same cell" true
    (Obs.Registry.counter reg "c" == c);
  match Obs.Registry.gauge reg "c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash on a registered name must raise"

let test_snapshot_merge () =
  let snap () =
    let reg = Obs.Registry.create () in
    let spans = Obs.Span.create () in
    Obs.Metric.add (Obs.Registry.counter reg "c") 3;
    Obs.Metric.set (Obs.Registry.gauge reg "g") 1.0;
    Obs.Metric.observe (Obs.Registry.histogram reg ~bounds:[ 2.0 ] "h") 1.0;
    Obs.Span.with_span spans "stage" (fun () -> ());
    Obs.Snapshot.v ~registry:reg ~spans
  in
  let a = snap () and b = snap () in
  let m = Obs.Snapshot.merge a b in
  Alcotest.(check string)
    "empty is a left identity"
    (Json.to_string (Obs.Snapshot.to_json a))
    (Json.to_string (Obs.Snapshot.to_json (Obs.Snapshot.merge Obs.Snapshot.empty a)));
  (match List.assoc "c" m.Obs.Snapshot.metrics with
  | Obs.Snapshot.Counter n -> Alcotest.(check int) "counters sum" 6 n
  | _ -> Alcotest.fail "expected a counter");
  (match List.assoc "h" m.Obs.Snapshot.metrics with
  | Obs.Snapshot.Histogram { count; _ } -> Alcotest.(check int) "histograms sum" 2 count
  | _ -> Alcotest.fail "expected a histogram");
  Alcotest.(check (option int))
    "span counts sum" (Some 2)
    (List.assoc_opt "stage" m.Obs.Snapshot.spans)

let test_openmetrics_format () =
  let reg = Obs.Registry.create () in
  let spans = Obs.Span.create () in
  Obs.Metric.add (Obs.Registry.counter reg ~help:"things done" "work") 7;
  Obs.Metric.observe (Obs.Registry.histogram reg ~bounds:[ 1.0; 2.0 ] "sizes") 1.5;
  let text = Obs.Snapshot.to_openmetrics (Obs.Snapshot.v ~registry:reg ~spans) in
  let has needle =
    let n = String.length needle and l = String.length text in
    let rec scan i = i + n <= l && (String.sub text i n = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (has needle))
    [
      "# TYPE work counter";
      "work_total 7";
      "# TYPE sizes histogram";
      "sizes_bucket{le=\"2.0\"} 1";
      "sizes_bucket{le=\"+Inf\"} 1";
      "sizes_count 1";
      "sizes_sum 1.5";
    ];
  Alcotest.(check bool) "terminated by # EOF" true (has "# EOF")

(* ------------------------------ spans ------------------------------- *)

(* Every span opened through with_span is closed, including when the
   wrapped thunk raises at an arbitrary nesting depth. *)
let span_balance_prop =
  QCheck.Test.make ~count:200 ~name:"every opened span is closed"
    QCheck.(pair (list small_nat) (int_bound 6))
    (fun (codes, raise_depth) ->
      let spans = Obs.Span.create () in
      (* Interleave enters and exits driven by the random codes. *)
      List.iter
        (fun code ->
          if code mod 2 = 0 then Obs.Span.enter spans (Printf.sprintf "s%d" (code mod 5))
          else if Obs.Span.open_spans spans > 0 then Obs.Span.exit spans)
        codes;
      while Obs.Span.open_spans spans > 0 do
        Obs.Span.exit spans
      done;
      (* A with_span tower that raises at the bottom must still unwind. *)
      let rec tower d =
        Obs.Span.with_span spans (Printf.sprintf "t%d" d) (fun () ->
            if d = 0 then failwith "boom" else tower (d - 1))
      in
      (match tower raise_depth with () -> () | exception Failure _ -> ());
      Obs.Span.open_spans spans = 0
      && Obs.Span.opened_total spans = List.length (Obs.Span.closed spans))

let test_span_nesting () =
  let spans = Obs.Span.create () in
  Obs.Span.with_span spans "run" (fun () ->
      Obs.Span.with_span spans "inject" (fun () -> ());
      Obs.Span.with_span spans "inject" (fun () -> ()));
  Alcotest.(check (list (pair string int)))
    "paths carry nesting and counts"
    [ ("run", 1); ("run/inject", 2) ]
    (Obs.Span.paths spans)

(* ------------------------- the run façade --------------------------- *)

let pipeline_outcome () =
  let workload = W.Cfg_gen.generate W.Apps.finagle_http in
  let program = workload.W.Cfg_gen.program in
  let train = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
  let eval = W.Executor.run workload ~input:W.Executor.eval_inputs.(0) ~n_instrs in
  Core.Pipeline.run
    {
      Core.Pipeline.Options.default with
      verify = true;
      eval =
        Some
          (Core.Pipeline.Eval.v ~warmup:(Array.length eval / 2) ~trace:eval
             ~policy:Cache.Lru.make ());
    }
    ~source:program (Core.Pipeline.Trace train)

let stage_names = [ "decode"; "profile"; "belady"; "cue-select"; "inject"; "simulate" ]

let test_run_spans_and_metrics () =
  let oc = pipeline_outcome () in
  List.iter
    (fun stage ->
      Alcotest.(check (option int))
        (stage ^ " span recorded once")
        (Some 1)
        (List.assoc_opt stage oc.Core.Pipeline.metrics.Obs.Snapshot.spans))
    stage_names;
  let metric name =
    match List.assoc_opt name oc.Core.Pipeline.metrics.Obs.Snapshot.metrics with
    | Some (Obs.Snapshot.Counter n) -> n
    | _ -> Alcotest.fail (name ^ " missing or not a counter")
  in
  Alcotest.(check bool) "profile accesses counted" true (metric "ripple_profile_accesses" > 0);
  Alcotest.(check bool) "windows counted" true (metric "ripple_belady_windows" > 0);
  Alcotest.(check int)
    "hints counted match the analysis" oc.Core.Pipeline.analysis.Core.Pipeline.injection
      .Core.Injector.injected
    (metric "ripple_inject_hints");
  match List.assoc_opt "ripple_sim_ipc" oc.Core.Pipeline.metrics.Obs.Snapshot.metrics with
  | Some (Obs.Snapshot.Series points) ->
    Alcotest.(check bool) "IPC series sampled" true (Array.length points > 0)
  | _ -> Alcotest.fail "ripple_sim_ipc series missing"

(* Deterministic observability: two fresh runs of the same input carry
   byte-identical snapshots (durations never enter the snapshot). *)
let test_run_snapshot_deterministic () =
  let a = pipeline_outcome () and b = pipeline_outcome () in
  Alcotest.(check string)
    "snapshots byte-identical"
    (Json.to_string (Obs.Snapshot.to_json a.Core.Pipeline.metrics))
    (Json.to_string (Obs.Snapshot.to_json b.Core.Pipeline.metrics))

(* The sweep-level property behind the JSONL [metrics] object: per-cell
   snapshots (metric values and span structure) are identical whether
   the sweep ran on one domain or four. *)
let test_metrics_jobs_parity () =
  let specs =
    [
      Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Policy "lru");
      Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Ripple { policy = "lru"; threshold = 0.5 });
      Exp.Spec.v ~n_instrs ~app:"verilator" ~prefetch:Core.Pipeline.No_prefetch Exp.Spec.Oracle;
    ]
  in
  let render cells =
    String.concat "\n"
      (List.map
         (fun (c : Exp.Runner.cell) ->
           match c.Exp.Runner.status with
           | Exp.Runner.Done o -> Json.to_string (Obs.Snapshot.to_json o.Exp.Runner.metrics)
           | _ -> Alcotest.fail "cell failed")
         cells)
  in
  Alcotest.(check string)
    "per-cell snapshots byte-identical across jobs"
    (render (Exp.Runner.run ~jobs:1 ~quiet:true specs))
    (render (Exp.Runner.run ~jobs:4 ~quiet:true specs))

(* ------------------------------ exports ----------------------------- *)

let test_chrome_trace_export () =
  let workload = W.Cfg_gen.generate W.Apps.finagle_http in
  let program = workload.W.Cfg_gen.program in
  let train = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
  let eval = W.Executor.run workload ~input:W.Executor.eval_inputs.(0) ~n_instrs in
  let obs = Obs.Run.create () in
  let _oc =
    Core.Pipeline.run ~obs
      {
        Core.Pipeline.Options.default with
        verify = true;
        eval =
          Some
            (Core.Pipeline.Eval.v ~warmup:(Array.length eval / 2) ~trace:eval
               ~policy:Cache.Lru.make ());
      }
      ~source:program (Core.Pipeline.Trace train)
  in
  let rendered = Obs.Export.chrome_trace obs in
  match Json.parse rendered with
  | Error e -> Alcotest.fail ("chrome trace is not valid JSON: " ^ e)
  | Ok json ->
    let events =
      match Json.member "traceEvents" json with
      | Some (Json.List l) -> l
      | _ -> Alcotest.fail "traceEvents missing"
    in
    let names_of ph =
      List.filter_map
        (fun e ->
          match (Json.member "ph" e, Json.member "name" e) with
          | Some (Json.String p), Some (Json.String n) when p = ph -> Some n
          | _ -> None)
        events
    in
    let span_names = names_of "X" in
    List.iter
      (fun stage ->
        Alcotest.(check bool) ("trace covers stage " ^ stage) true (List.mem stage span_names))
      stage_names;
    Alcotest.(check bool)
      "virtual-time counter events present" true
      (List.mem "ripple_sim_ipc" (names_of "C"));
    List.iter
      (fun e ->
        match (Json.member "ph" e, Json.member "dur" e) with
        | Some (Json.String "X"), Some (Json.Float d) ->
          Alcotest.(check bool) "span durations non-negative" true (d >= 0.0)
        | _ -> ())
      events

(* The metric-name schema is a contract: the vocabulary a full run
   registers must equal the checked-in docs/metrics.schema (which CI
   also greps against the bench artifacts). *)
let test_metrics_schema () =
  let oc = pipeline_outcome () in
  let text = Obs.Snapshot.to_openmetrics oc.Core.Pipeline.metrics in
  let type_lines =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] -> Some (name ^ " " ^ kind)
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  let ic = open_in "../docs/metrics.schema" in
  let keep line =
    (* The ripple_serve_* families come from the daemon, not a pipeline
       run; the serve suite pins those against the live scrape. *)
    String.trim line <> ""
    && not (String.length line >= 13 && String.sub line 0 13 = "ripple_serve_")
  in
  let rec read acc =
    match input_line ic with
    | line -> read (if keep line then String.trim line :: acc else acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  let schema = read [] in
  Alcotest.(check (list string)) "metric schema matches docs/metrics.schema" schema type_lines

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "metric cells" `Quick test_metric_cells;
        Alcotest.test_case "snapshot merge" `Quick test_snapshot_merge;
        Alcotest.test_case "openmetrics format" `Quick test_openmetrics_format;
        QCheck_alcotest.to_alcotest span_balance_prop;
        Alcotest.test_case "span nesting paths" `Quick test_span_nesting;
        Alcotest.test_case "run spans and metrics" `Slow test_run_spans_and_metrics;
        Alcotest.test_case "run snapshot deterministic" `Slow test_run_snapshot_deterministic;
        Alcotest.test_case "per-cell metrics parity across jobs" `Slow test_metrics_jobs_parity;
        Alcotest.test_case "chrome trace export" `Slow test_chrome_trace_export;
        Alcotest.test_case "metric schema pinned" `Slow test_metrics_schema;
      ] );
  ]
