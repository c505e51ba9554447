module W = Ripple_workloads
module Program = Ripple_isa.Program
module Pt = Ripple_trace.Pt
module Registry = Ripple_cache.Registry
module Simulator = Ripple_cpu.Simulator
module Pipeline = Ripple_core.Pipeline
module Pool = Ripple_exp.Pool
module Json = Ripple_util.Json
module Table = Ripple_util.Table

module Obs = Ripple_obs

type outcome = {
  degrade : Pipeline.Degrade.t;
  pt_errors : int;
  injected : int;
  baseline_ipc : float;
  instrumented_ipc : float;
  violations : string list;
  metrics : Obs.Snapshot.t;
}

type status = Ran of outcome | Crashed of string

type cell = {
  app : string;
  fault : Fault.t;
  expectation : Fault.expectation;
  status : status;
}

type report = { cells : cell list; crashed : int; violations : int }

(* Per-(app, fault) seed: the cell key folded with the run seed. *)
let cell_seed ~seed app fault =
  Ripple_util.Prng.seed_of_string (Printf.sprintf "%s/%s/%d" app (Fault.to_string fault) seed)

(* Build the (possibly faulted) profile artifact for one cell.  The
   fault decides which layer it attacks: the packet stream, the decoded
   capture, the profiled layout, or the profiling input. *)
let profile_of_fault ~seed ~n_instrs workload program train fault =
  match Fault.profile_rotation fault with
  | Some rotation ->
    (* Profile under a rotated handler mix: a clean capture of a
       legitimately different execution (Fig. 13's input drift). *)
    let base = W.Executor.train in
    let input =
      {
        base with
        W.Executor.handler_rotation = base.W.Executor.handler_rotation + rotation;
        label = Printf.sprintf "%s+rot%d" base.W.Executor.label rotation;
      }
    in
    let t = W.Executor.run workload ~input ~n_instrs in
    Pipeline.profile_of ~source:program (Pipeline.Pt_bytes (Pt.encode program t))
  | None -> begin
    let source = Fault.profile_program fault program in
    let t = Fault.apply_trace ~seed fault train in
    match fault with
    | Fault.Truncate_trace { keep } ->
      (* The capture is a clean prefix; what was lost is known, so the
         salvage ratio is declared rather than measured. *)
      { Pipeline.trace = t; source; salvage = keep; pt_errors = 0 }
    | Fault.Edge_reshuffle _ ->
      (* A reshuffled capture is no longer a legal path, so it cannot
         round-trip the codec; it reaches the pipeline as a decoded
         trace, the way a stitched LBR profile would. *)
      Pipeline.profile_of ~source (Pipeline.Trace t)
    | Fault.Clean | Fault.Flip_tnt _ | Fault.Drop_tip _ | Fault.Garbage_tip _
    | Fault.Truncate_pt _ | Fault.Layout_shift _ | Fault.Hot_swap _ ->
      let data = Fault.corrupt_pt ~seed fault (Pt.encode source t) in
      Pipeline.profile_of ~source (Pipeline.Pt_bytes data)
  end

let check_cell ~expectation ~(degrade : Pipeline.Degrade.t) ~baseline_ipc ~instrumented_ipc =
  let v = ref [] in
  let push fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  let level = degrade.Pipeline.Degrade.level in
  (match expectation with
  | Fault.Expect_any -> ()
  | Fault.Expect_full ->
    if level <> Pipeline.Degrade.Full then
      push "expected full hints, degraded to %s" (Pipeline.Degrade.level_name level)
  | Fault.Expect_degraded ->
    if level = Pipeline.Degrade.Full then push "expected degradation, profile fully trusted"
  | Fault.Expect_off ->
    if level <> Pipeline.Degrade.Hints_off then
      push "expected hints off, got %s" (Pipeline.Degrade.level_name level));
  if not (degrade.Pipeline.Degrade.salvage >= 0.0 && degrade.Pipeline.Degrade.salvage <= 1.0)
  then push "salvage %g outside [0, 1]" degrade.Pipeline.Degrade.salvage;
  if degrade.Pipeline.Degrade.drift < 0.0 then
    push "negative drift %g" degrade.Pipeline.Degrade.drift;
  (* With hints disabled the shipped binary is the original, so the run
     must match the uninstrumented baseline exactly — the never-worse
     guarantee under heavy drift. *)
  if level = Pipeline.Degrade.Hints_off && instrumented_ipc < baseline_ipc -. 1e-9 then
    push "hints-off IPC %.6f below uninstrumented baseline %.6f" instrumented_ipc baseline_ipc;
  List.rev !v

let run_cell ~seed ~n_instrs ~prefetch ~policy ~workload ~program ~train ~eval ~warmup
    ~baseline_ipc fault =
  let expectation = Fault.expectation fault in
  let seed = cell_seed ~seed workload.W.Cfg_gen.model.W.App_model.name fault in
  match
    let profile = profile_of_fault ~seed ~n_instrs workload program train fault in
    (* min_support = 1: chaos traces are far shorter than real profiling
       runs, and the harness wants hints actually injected so degraded
       modes (and the safe-only stripper) have something to act on. *)
    let opts =
      {
        Pipeline.Options.default with
        degrade = true;
        min_support = 1;
        prefetch;
        eval = Some (Pipeline.Eval.v ~warmup ~trace:eval ~policy ());
      }
    in
    let oc = Pipeline.run opts ~source:program (Pipeline.Profile profile) in
    let analysis = oc.Pipeline.analysis in
    let ev = Option.get oc.Pipeline.evaluation in
    let degrade = analysis.Pipeline.degrade in
    let instrumented_ipc = ev.Pipeline.result.Simulator.ipc in
    {
      degrade;
      pt_errors = profile.Pipeline.pt_errors;
      injected = analysis.Pipeline.injection.Ripple_core.Injector.injected;
      baseline_ipc;
      instrumented_ipc;
      violations = check_cell ~expectation ~degrade ~baseline_ipc ~instrumented_ipc;
      metrics = oc.Pipeline.metrics;
    }
  with
  | outcome -> Ran outcome
  | exception e -> Crashed (Printexc.to_string e)

let app_names () = List.map (fun m -> m.W.App_model.name) W.Apps.all

let run ?(apps = app_names ()) ?(faults = Fault.matrix) ?(n_instrs = 200_000) ?(seed = 20240)
    ?(prefetch = Pipeline.Fdip) ?(policy = "lru") ?jobs () =
  let run_app app =
    let workload =
      match W.Apps.by_name app with
      | Some m -> W.Cfg_gen.generate m
      | None ->
        invalid_arg
          (Printf.sprintf "Chaos: unknown application %S (known: %s)" app
             (String.concat ", " (app_names ())))
    in
    let program = workload.W.Cfg_gen.program in
    let train = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
    let eval = W.Executor.run workload ~input:W.Executor.eval_inputs.(0) ~n_instrs in
    let warmup = Array.length eval / 2 in
    let policy_factory = Registry.factory ~seed policy in
    let baseline =
      Simulator.run ~warmup ~program ~trace:eval ~policy:policy_factory
        ~prefetcher:(Pipeline.prefetcher_of prefetch)
        ()
    in
    let baseline_ipc = baseline.Simulator.ipc in
    List.map
      (fun fault ->
        {
          app;
          fault;
          expectation = Fault.expectation fault;
          status =
            run_cell ~seed ~n_instrs ~prefetch ~policy:policy_factory ~workload ~program ~train
              ~eval ~warmup ~baseline_ipc fault;
        })
      faults
  in
  let per_app = Pool.run ?jobs ~f:run_app (Array.of_list apps) in
  let cells =
    List.concat
      (List.map2
         (fun app r ->
           match r with
           | Some (Ok cells) -> cells
           | Some (Error e) ->
             (* The whole app context failed to build: every cell of the
                app is reported crashed rather than silently dropped. *)
             List.map
               (fun fault ->
                 { app; fault; expectation = Fault.expectation fault; status = Crashed e })
               faults
           | None -> assert false (* no breaker is installed here *))
         apps (Array.to_list per_app))
  in
  let crashed =
    List.length (List.filter (fun c -> match c.status with Crashed _ -> true | _ -> false) cells)
  in
  let violations =
    List.fold_left
      (fun acc c ->
        match c.status with Ran o -> acc + List.length o.violations | Crashed _ -> acc)
      0 cells
  in
  { cells; crashed; violations }

let exit_code report = if report.crashed > 0 then 2 else if report.violations > 0 then 1 else 0

(* Cells are ordered (app-major, fault-minor) regardless of pool size,
   and merge is a fold in that order, so the aggregate is deterministic
   across [jobs]. *)
let merged_metrics r =
  List.fold_left
    (fun acc c ->
      match c.status with Ran o -> Obs.Snapshot.merge acc o.metrics | Crashed _ -> acc)
    Obs.Snapshot.empty r.cells

let cell_to_json c =
  let base =
    [
      ("app", Json.String c.app);
      ("fault", Fault.to_json c.fault);
      ("fault_key", Json.String (Fault.to_string c.fault));
      ("expectation", Json.String (Fault.expectation_name c.expectation));
    ]
  in
  let payload =
    match c.status with
    | Crashed e -> [ ("status", Json.String "crashed"); ("error", Json.String e) ]
    | Ran o ->
      [
        ("status", Json.String "ok");
        ("degrade", Pipeline.Degrade.to_json o.degrade);
        ("pt_errors", Json.Int o.pt_errors);
        ("injected", Json.Int o.injected);
        ("baseline_ipc", Json.Float o.baseline_ipc);
        ("instrumented_ipc", Json.Float o.instrumented_ipc);
        ("violations", Json.List (List.map (fun s -> Json.String s) o.violations));
      ]
  in
  Json.Obj (base @ payload)

let report_to_json r =
  Json.Obj
    [
      ("cells", Json.List (List.map cell_to_json r.cells));
      ("n_cells", Json.Int (List.length r.cells));
      ("crashed", Json.Int r.crashed);
      ("violations", Json.Int r.violations);
    ]

let print_summary r =
  let table =
    Table.create ~title:"chaos matrix"
      ~columns:
        [
          ("cell", Table.Left);
          ("level", Table.Left);
          ("salvage", Table.Right);
          ("drift", Table.Right);
          ("hints", Table.Right);
          ("ipc/base", Table.Right);
          ("verdict", Table.Left);
        ]
  in
  List.iter
    (fun c ->
      let key = Printf.sprintf "%s/%s" c.app (Fault.to_string c.fault) in
      match c.status with
      | Crashed e ->
        Table.add_row table
          [
            key;
            "-";
            "-";
            "-";
            "-";
            "-";
            Printf.sprintf "CRASH: %s" (List.hd (String.split_on_char '\n' e));
          ]
      | Ran o ->
        let d = o.degrade in
        Table.add_row table
          [
            key;
            Pipeline.Degrade.level_name d.Pipeline.Degrade.level;
            Printf.sprintf "%.2f" d.Pipeline.Degrade.salvage;
            Printf.sprintf "%.3f" d.Pipeline.Degrade.drift;
            string_of_int o.injected;
            Printf.sprintf "%.3f" (o.instrumented_ipc /. o.baseline_ipc);
            (match o.violations with
            | [] -> "ok"
            | v :: _ -> Printf.sprintf "VIOLATION: %s" v);
          ])
    r.cells;
  Table.print table;
  Printf.printf "%d cells, %d crashed, %d violations\n%!" (List.length r.cells) r.crashed
    r.violations
