(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index).

     dune exec bench/main.exe -- [--jobs N] [--out cells.jsonl]
                                 [all|smoke|fig1|fig2|fig3|fig6|fig7|fig8|
                                  fig9|fig10|fig11|fig12|fig13|tab1|tab2|
                                  ablation|micro] ...

   The per-(application, prefetcher) simulation matrix is expressed as
   experiment specs and fanned out over the Ripple_exp domain pool
   (--jobs, default: the runtime's recommended domain count; results are
   identical at any pool size), then memoized; figures are views over
   it.  --out appends every computed cell as JSON lines, keyed and
   sorted by spec, so bench trajectories can be diffed across PRs.
   Trace length is controlled with RIPPLE_BENCH_INSTRS (default
   4,000,000 original instructions; the paper used 100 M on real
   hardware — scaled down for a laptop-class reproduction, see
   EXPERIMENTS.md). *)

module W = Ripple_workloads
module Cache = Ripple_cache
module Cpu = Ripple_cpu
module Core = Ripple_core
module Exp = Ripple_exp
module Registry = Ripple_cache.Registry
module Table = Ripple_util.Table
module Summary = Ripple_util.Summary

let n_instrs =
  ref
    (match Sys.getenv_opt "RIPPLE_BENCH_INSTRS" with
    | Some s -> int_of_string s
    | None -> 4_000_000)

let jobs =
  ref (Option.map int_of_string (Sys.getenv_opt "RIPPLE_BENCH_JOBS"))

let out_path = ref None
let metrics_path = ref None

let threshold_candidates = [ 0.5; 0.65 ]
let apps = W.Apps.all
let prefetches = [ Core.Pipeline.No_prefetch; Core.Pipeline.Nlp; Core.Pipeline.Fdip ]

let pct x = Printf.sprintf "%+.2f%%" (100.0 *. x)
let pct0 x = Printf.sprintf "%.1f%%" (100.0 *. x)

let speedup ~base (r : Cpu.Simulator.result) =
  (r.Cpu.Simulator.ipc /. base.Cpu.Simulator.ipc) -. 1.0

let miss_reduction ~base (r : Cpu.Simulator.result) =
  if base.Cpu.Simulator.demand_misses = 0 then 0.0
  else
    1.0
    -. (Float.of_int r.Cpu.Simulator.demand_misses
       /. Float.of_int base.Cpu.Simulator.demand_misses)

(* ------------------------------------------------------------------ *)
(* The simulation matrix                                               *)
(* ------------------------------------------------------------------ *)

type workload_data = {
  workload : W.Cfg_gen.t;
  train : int array;  (** profiling trace *)
  eval : int array;  (** evaluation trace (input #0) *)
  warmup : int;
}

let workload_cache : (string, workload_data) Hashtbl.t = Hashtbl.create 16

let workload_of (model : W.App_model.t) =
  let name = model.W.App_model.name in
  match Hashtbl.find_opt workload_cache name with
  | Some data -> data
  | None ->
    let n_instrs = !n_instrs in
    let workload = W.Cfg_gen.generate model in
    let train = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
    let eval = W.Executor.run workload ~input:W.Executor.eval_inputs.(0) ~n_instrs in
    let data = { workload; train; eval; warmup = Array.length eval / 2 } in
    Hashtbl.add workload_cache name data;
    data

type ripple_result = { threshold : float; ev : Core.Pipeline.evaluation }

type cell = {
  lru : Cpu.Simulator.result;
  random : Cpu.Simulator.result;
  srrip : Cpu.Simulator.result;
  drrip : Cpu.Simulator.result;
  ghrp : Cpu.Simulator.result;
  hawkeye : Cpu.Simulator.result;
  trrip : Cpu.Simulator.result;
  ehc_hawkeye : Cpu.Simulator.result;
  ship_sb : Cpu.Simulator.result;
  ideal_cache : Cpu.Simulator.result;
  oracle : Cpu.Simulator.result;  (** ideal replacement (MIN / Demand-MIN) *)
  ripple_lru : ripple_result;
  ripple_random : Core.Pipeline.evaluation;
}

let cell_cache : (string * string, cell) Hashtbl.t = Hashtbl.create 64

let log fmt =
  Printf.ksprintf
    (fun s ->
      if Sys.getenv_opt "RIPPLE_BENCH_QUIET" = None then Printf.eprintf "[bench] %s\n%!" s)
    fmt

(* The matrix is computed by submitting experiment specs to the
   Ripple_exp domain pool rather than looping inline: every hardware
   policy, both ideal bounds and every Ripple threshold candidate of a
   bench cell is one independent spec, so a single `ensure_cells` call
   over several (app, prefetcher) pairs saturates the pool.  Aggregation
   is keyed by spec — completion order never matters — and the Ripple
   random-policy evaluation is a second wave, because it reuses the
   invalidation threshold the LRU search selects (§III-C). *)

let all_cells : Exp.Runner.cell list ref = ref []

(* Include per-cell GC allocation stats in the --out JSONL.  Off by
   default so figure/table sweeps stay byte-identical across runs and
   pool sizes; `smoke` turns it on as the quick memory health check. *)
let gc_in_jsonl = ref false

let run_specs specs =
  let quiet = Sys.getenv_opt "RIPPLE_BENCH_QUIET" <> None in
  let cells = Exp.Runner.run ?jobs:!jobs ~quiet specs in
  all_cells := !all_cells @ cells;
  cells

(* Every figure assumes its cells succeeded; a failed cell means the
   figure is wrong, so abort with the offending spec. *)
let require cell =
  match Exp.Runner.result cell with
  | Ok o -> o
  | Error e ->
    failwith (Printf.sprintf "%s: %s" (Exp.Spec.to_string cell.Exp.Runner.spec) e)

let write_cells () =
  match !out_path with
  | None -> ()
  | Some path ->
    let sorted =
      List.sort_uniq
        (fun (a : Exp.Runner.cell) b -> Exp.Spec.compare a.Exp.Runner.spec b.Exp.Runner.spec)
        !all_cells
    in
    Exp.Report.write_jsonl ~gc:!gc_in_jsonl path sorted;
    log "wrote %s (%d cells)" path (List.length sorted)

let write_metrics () =
  match !metrics_path with
  | None -> ()
  | Some path ->
    (* Merge over the spec-sorted, deduplicated cell list — the same
       normalization as the JSONL — so the aggregate is independent of
       figure order and pool size. *)
    let sorted =
      List.sort_uniq
        (fun (a : Exp.Runner.cell) b -> Exp.Spec.compare a.Exp.Runner.spec b.Exp.Runner.spec)
        !all_cells
    in
    let oc = open_out path in
    output_string oc (Ripple_obs.Snapshot.to_openmetrics (Exp.Report.merged_metrics sorted));
    close_out oc;
    log "wrote %s" path

let cell_policies =
  [ "lru"; "random"; "srrip"; "drrip"; "ghrp"; "hawkeye"; "trrip"; "ehc-hawkeye"; "ship-sb" ]

let ensure_cells pairs =
  let key (model, prefetch) =
    (model.W.App_model.name, Core.Pipeline.prefetch_name prefetch)
  in
  let missing =
    List.filter (fun pair -> not (Hashtbl.mem cell_cache (key pair))) pairs
    |> List.sort_uniq (fun a b -> compare (key a) (key b))
  in
  if missing <> [] then begin
    let t0 = Unix.gettimeofday () in
    let spec_of (model, prefetch) kind =
      Exp.Spec.v ~n_instrs:!n_instrs ~seed:1234 ~prefetch ~app:model.W.App_model.name kind
    in
    let phase1 =
      List.concat_map
        (fun pair ->
          List.map (fun p -> spec_of pair (Exp.Spec.Policy p)) cell_policies
          @ [ spec_of pair Exp.Spec.Ideal_cache; spec_of pair Exp.Spec.Oracle ]
          @ List.map
              (fun threshold ->
                spec_of pair (Exp.Spec.Ripple { policy = "lru"; threshold }))
              threshold_candidates)
        missing
    in
    let cells1 = run_specs phase1 in
    let outcome_of cells pair kind =
      match Exp.Runner.find cells (spec_of pair kind) with
      | Some cell -> require cell
      | None ->
        failwith (Printf.sprintf "bench: missing cell %s" (Exp.Spec.to_string (spec_of pair kind)))
    in
    (* Per-application invalidation threshold (§III-C): best-performing
       candidate under LRU, first candidate winning ties. *)
    let best_ripple pair =
      List.fold_left
        (fun acc threshold ->
          let o = outcome_of cells1 pair (Exp.Spec.Ripple { policy = "lru"; threshold }) in
          match acc with
          | Some (_, best) when best.Core.Pipeline.result.Cpu.Simulator.ipc
                                >= o.Exp.Runner.result.Cpu.Simulator.ipc -> acc
          | _ -> Some (threshold, Option.get o.Exp.Runner.evaluation))
        None threshold_candidates
      |> Option.get
    in
    let chosen = List.map (fun pair -> (pair, best_ripple pair)) missing in
    let phase2 =
      List.map
        (fun (pair, (threshold, _)) ->
          spec_of pair (Exp.Spec.Ripple { policy = "random"; threshold }))
        chosen
    in
    let cells2 = run_specs phase2 in
    List.iter
      (fun (pair, (threshold, ev)) ->
        let result kind = (outcome_of cells1 pair kind).Exp.Runner.result in
        let ripple_random =
          Option.get
            (outcome_of cells2 pair (Exp.Spec.Ripple { policy = "random"; threshold }))
              .Exp.Runner.evaluation
        in
        let cell =
          {
            lru = result (Exp.Spec.Policy "lru");
            random = result (Exp.Spec.Policy "random");
            srrip = result (Exp.Spec.Policy "srrip");
            drrip = result (Exp.Spec.Policy "drrip");
            ghrp = result (Exp.Spec.Policy "ghrp");
            hawkeye = result (Exp.Spec.Policy "hawkeye");
            trrip = result (Exp.Spec.Policy "trrip");
            ehc_hawkeye = result (Exp.Spec.Policy "ehc-hawkeye");
            ship_sb = result (Exp.Spec.Policy "ship-sb");
            ideal_cache = result Exp.Spec.Ideal_cache;
            oracle = result Exp.Spec.Oracle;
            ripple_lru = { threshold; ev };
            ripple_random;
          }
        in
        Hashtbl.add cell_cache (key pair) cell)
      chosen;
    log "%d cell(s) done in %.1fs" (List.length missing) (Unix.gettimeofday () -. t0)
  end

let cell_of model prefetch =
  ensure_cells [ (model, prefetch) ];
  Hashtbl.find cell_cache (model.W.App_model.name, Core.Pipeline.prefetch_name prefetch)

let prewarm prefetches = ensure_cells (List.concat_map (fun pf -> List.map (fun m -> (m, pf)) apps) prefetches)

(* ------------------------------------------------------------------ *)
(* Tables and figures                                                  *)
(* ------------------------------------------------------------------ *)

let app_rows f =
  (* Rows for all nine apps plus a mean row. *)
  let acc : (string * float list) list ref = ref [] in
  List.iter (fun model -> acc := (model.W.App_model.name, f model) :: !acc) apps;
  List.rev !acc

let print_per_app ~title ~columns ~fmt rows =
  let table = Table.create ~title ~columns:(("application", Table.Left) :: columns) in
  let sums = Array.make (List.length columns) (Summary.create ()) in
  Array.iteri (fun i _ -> sums.(i) <- Summary.create ()) sums;
  List.iter
    (fun (name, values) ->
      List.iteri (fun i v -> Summary.add sums.(i) v) values;
      Table.add_row table (name :: List.map fmt values))
    rows;
  Table.add_sep table;
  Table.add_row table ("mean" :: Array.to_list (Array.map (fun s -> fmt (Summary.mean s)) sums));
  Table.print table;
  print_newline ()

let tab2 () =
  Format.printf "%a@.@." Cpu.Config.pp_table Cpu.Config.default

let tab1 () =
  (* Every row but the software one comes from the policy registry, so a
     newly registered policy appears here automatically. *)
  let geometry = Cpu.Config.default.Cpu.Config.l1i in
  let sets = Cache.Geometry.sets geometry and ways = geometry.Cache.Geometry.ways in
  let policies =
    List.map
      (fun (e : Registry.entry) ->
        ( e.Registry.display,
          (e.Registry.factory ~seed:0 ~sets ~ways).Cache.Policy.storage_bits,
          e.Registry.storage_note ))
      Registry.all
    @ [ ("Ripple (software)", 0, "no hardware metadata beyond the base policy") ]
  in
  let table =
    Table.create ~title:"Table I: replacement metadata for a 32 KiB, 8-way, 64 B-line I-cache"
      ~columns:[ ("policy", Table.Left); ("overhead", Table.Right); ("notes", Table.Left) ]
  in
  List.iter
    (fun (name, bits, notes) ->
      let bytes = Float.of_int bits /. 8.0 in
      let overhead =
        if bytes >= 1024.0 then Printf.sprintf "%.2f KiB" (bytes /. 1024.0)
        else Printf.sprintf "%.0f B" bytes
      in
      Table.add_row table [ name; overhead; notes ])
    policies;
  Table.print table;
  print_newline ()

let fig1 () =
  prewarm [ Core.Pipeline.No_prefetch ];
  let rows =
    app_rows (fun model ->
        let cell = cell_of model Core.Pipeline.No_prefetch in
        [ speedup ~base:cell.lru cell.ideal_cache ])
  in
  print_per_app
    ~title:
      "Fig. 1: ideal I-cache (no misses) speedup over LRU, no prefetching\n\
       (paper: 11-47%, mean 17.7%)"
    ~columns:[ ("ideal $ speedup", Table.Right) ]
    ~fmt:pct rows

let fig2 () =
  prewarm [ Core.Pipeline.No_prefetch; Core.Pipeline.Fdip ];
  let rows =
    app_rows (fun model ->
        let none = cell_of model Core.Pipeline.No_prefetch in
        let fdip = cell_of model Core.Pipeline.Fdip in
        let base = none.lru in
        [ speedup ~base fdip.lru; speedup ~base fdip.oracle; speedup ~base none.ideal_cache ])
  in
  print_per_app
    ~title:
      "Fig. 2: FDIP speedup over the no-prefetch LRU baseline\n\
       (paper: FDIP+LRU 13.4%, FDIP+ideal-replacement 16.6%, ideal cache 17.7%)"
    ~columns:
      [
        ("FDIP+LRU", Table.Right);
        ("FDIP+ideal repl", Table.Right);
        ("ideal $", Table.Right);
      ]
    ~fmt:pct rows

let fig3 () =
  prewarm [ Core.Pipeline.Fdip ];
  let rows =
    app_rows (fun model ->
        let cell = cell_of model Core.Pipeline.Fdip in
        let base = cell.lru in
        [
          speedup ~base cell.ghrp;
          speedup ~base cell.hawkeye;
          speedup ~base cell.srrip;
          speedup ~base cell.drrip;
          speedup ~base cell.trrip;
          speedup ~base cell.ehc_hawkeye;
          speedup ~base cell.ship_sb;
          speedup ~base cell.oracle;
        ])
  in
  print_per_app
    ~title:
      "Fig. 3: prior and modern replacement policies over LRU, with FDIP\n\
       (paper: none beat LRU; ideal replacement +3.16% mean)"
    ~columns:
      [
        ("GHRP", Table.Right);
        ("Hawkeye", Table.Right);
        ("SRRIP", Table.Right);
        ("DRRIP", Table.Right);
        ("TRRIP", Table.Right);
        ("EHC-Hawkeye", Table.Right);
        ("SHiP-SB", Table.Right);
        ("ideal repl", Table.Right);
      ]
    ~fmt:pct rows

let fig6 () =
  (* Coverage/accuracy trade-off for finagle-http under FDIP.  Each
     threshold is one Ripple spec, so the whole sweep fans out at once. *)
  let model = W.Apps.finagle_http in
  let table =
    Table.create
      ~title:
        "Fig. 6: Ripple coverage vs accuracy across invalidation thresholds\n\
         (finagle-http, FDIP; paper: coverage ~100% at low thresholds, accuracy\n\
         near-perfect at high thresholds, sweet spot at 40-60%)"
      ~columns:
        [
          ("threshold", Table.Right);
          ("coverage", Table.Right);
          ("accuracy", Table.Right);
          ("speedup vs LRU", Table.Right);
        ]
  in
  let base = (cell_of model Core.Pipeline.Fdip).lru in
  let thresholds = [ 0.05; 0.2; 0.35; 0.5; 0.65; 0.8; 0.95 ] in
  let specs =
    List.map
      (fun threshold ->
        Exp.Spec.v ~n_instrs:!n_instrs ~seed:1234 ~prefetch:Core.Pipeline.Fdip
          ~app:model.W.App_model.name
          (Exp.Spec.Ripple { policy = "lru"; threshold }))
      thresholds
  in
  let cells = run_specs specs in
  List.iter2
    (fun threshold cell ->
      let ev = Option.get (require cell).Exp.Runner.evaluation in
      Table.add_row table
        [
          Printf.sprintf "%.0f%%" (100.0 *. threshold);
          pct0 ev.Core.Pipeline.coverage;
          pct0 ev.Core.Pipeline.accuracy;
          pct (speedup ~base ev.Core.Pipeline.result);
        ])
    thresholds cells;
  Table.print table;
  print_newline ()

let fig7_8 which () =
  prewarm prefetches;
  List.iter
    (fun prefetch ->
      let pf = Core.Pipeline.prefetch_name prefetch in
      let metric ~base r = match which with
        | `Speedup -> speedup ~base r
        | `Mpki -> miss_reduction ~base r
      in
      let rows =
        app_rows (fun model ->
            let cell = cell_of model prefetch in
            let base = cell.lru in
            [
              metric ~base cell.oracle;
              metric ~base cell.ripple_lru.ev.Core.Pipeline.result;
              metric ~base cell.ripple_random.Core.Pipeline.result;
              metric ~base cell.ghrp;
              metric ~base cell.hawkeye;
              metric ~base cell.srrip;
              metric ~base cell.drrip;
              metric ~base cell.trrip;
              metric ~base cell.ehc_hawkeye;
              metric ~base cell.ship_sb;
              metric ~base cell.random;
            ])
      in
      let what, paper =
        match which with
        | `Speedup ->
          ( "Fig. 7: speedup over LRU",
            "paper means: none 1.25%/3.36%, NLP 2.13%/3.87%, FDIP 1.4%/3.16% (Ripple-LRU/ideal)" )
        | `Mpki ->
          ( "Fig. 8: L1I miss reduction vs LRU",
            "paper means: none 9.57%/28.88%, NLP 28.6%/53.66%, FDIP 18.61%/45% (Ripple-LRU/ideal)"
          )
      in
      print_per_app
        ~title:(Printf.sprintf "%s — prefetcher: %s\n(%s)" what pf paper)
        ~columns:
          [
            ("ideal repl", Table.Right);
            ("Ripple-LRU", Table.Right);
            ("Ripple-Rand", Table.Right);
            ("GHRP", Table.Right);
            ("Hawkeye", Table.Right);
            ("SRRIP", Table.Right);
            ("DRRIP", Table.Right);
            ("TRRIP", Table.Right);
            ("EHC-Hawkeye", Table.Right);
            ("SHiP-SB", Table.Right);
            ("Random", Table.Right);
          ]
        ~fmt:pct rows)
    prefetches

let zoo_policies =
  [ ("TRRIP", "trrip"); ("EHC-Hawkeye", "ehc-hawkeye"); ("SHiP-SB", "ship-sb") ]

let zoo () =
  (* "Modern policies vs Ripple hints": each policy-zoo newcomer runs
     plain and with Ripple's hint stream layered on top, at the
     invalidation threshold the per-app LRU search already chose
     (Â§III-C) â answering the question the paper leaves open: do
     profile-guided hints still pay once the base policy is smarter
     than LRU? *)
  prewarm [ Core.Pipeline.Fdip ];
  let spec_of model p threshold =
    Exp.Spec.v ~n_instrs:!n_instrs ~seed:1234 ~prefetch:Core.Pipeline.Fdip
      ~app:model.W.App_model.name
      (Exp.Spec.Ripple { policy = p; threshold })
  in
  let specs =
    List.concat_map
      (fun model ->
        let cell = cell_of model Core.Pipeline.Fdip in
        List.map
          (fun (_, p) -> spec_of model p cell.ripple_lru.threshold)
          zoo_policies)
      apps
  in
  let cells = run_specs specs in
  let hinted model p threshold =
    match Exp.Runner.find cells (spec_of model p threshold) with
    | Some cell -> (require cell).Exp.Runner.result
    | None ->
      failwith
        (Printf.sprintf "zoo: missing hinted cell %s/%s" model.W.App_model.name p)
  in
  let plain_of cell p =
    match p with
    | "trrip" -> cell.trrip
    | "ehc-hawkeye" -> cell.ehc_hawkeye
    | "ship-sb" -> cell.ship_sb
    | _ -> invalid_arg p
  in
  let rows =
    app_rows (fun model ->
        let cell = cell_of model Core.Pipeline.Fdip in
        let base = cell.lru in
        let threshold = cell.ripple_lru.threshold in
        List.concat_map
          (fun (_, p) ->
            [
              speedup ~base (plain_of cell p);
              speedup ~base (hinted model p threshold);
            ])
          zoo_policies)
  in
  print_per_app
    ~title:
      "Modern policies vs Ripple hints (FDIP; speedup over LRU)\n\
       (each policy plain, then with Ripple invalidation/demotion hints at\n\
       the per-app threshold the LRU search chose)"
    ~columns:
      (List.concat_map
         (fun (label, _) -> [ (label, Table.Right); (label ^ "+hints", Table.Right) ])
         zoo_policies)
    ~fmt:pct rows

let fig9_12 () =
  prewarm [ Core.Pipeline.Fdip ];
  let rows =
    app_rows (fun model ->
        let cell = cell_of model Core.Pipeline.Fdip in
        let ev = cell.ripple_lru.ev in
        [
          ev.Core.Pipeline.coverage;
          ev.Core.Pipeline.accuracy;
          ev.Core.Pipeline.static_overhead;
          ev.Core.Pipeline.dynamic_overhead;
          cell.ripple_lru.threshold;
        ])
  in
  print_per_app
    ~title:
      "Figs. 9-12: Ripple-LRU coverage, accuracy and overheads (FDIP)\n\
       (paper: coverage >50% mean, <50% for the JIT/HHVM apps; accuracy 92% mean;\n\
       static <4.4%; dynamic 2.2% mean, ~10% for verilator)"
    ~columns:
      [
        ("coverage", Table.Right);
        ("accuracy", Table.Right);
        ("static ovh", Table.Right);
        ("dynamic ovh", Table.Right);
        ("threshold", Table.Right);
      ]
    ~fmt:(fun v -> pct0 v)
    rows

let fig13 () =
  (* Cross-input generality: profile on input #0's profile vs an
     input-specific profile, evaluated on inputs #1..#3 under FDIP. *)
  let chosen = [ W.Apps.cassandra; W.Apps.finagle_http; W.Apps.tomcat; W.Apps.verilator ] in
  let table =
    Table.create
      ~title:
        "Fig. 13: Ripple-LRU speedup with a generic (input #0) profile vs an\n\
         input-specific profile, FDIP (paper: input-specific profiles give ~17%\n\
         more IPC gain)"
      ~columns:
        [
          ("application", Table.Left);
          ("input", Table.Left);
          ("#0 profile", Table.Right);
          ("own profile", Table.Right);
        ]
  in
  let gains = Summary.create () and gains_own = Summary.create () in
  List.iter
    (fun model ->
      let { workload; eval = eval0; _ } = workload_of model in
      let program = workload.W.Cfg_gen.program in
      Array.iteri
        (fun i input ->
          if i >= 1 then begin
            let trace = W.Executor.run workload ~input ~n_instrs:!n_instrs in
            let warmup = Array.length trace / 2 in
            let base =
              Cpu.Simulator.run ~warmup ~program ~trace ~policy:Cache.Lru.make
                ~prefetcher:(Core.Pipeline.prefetcher_of Core.Pipeline.Fdip) ()
            in
            (* One façade call per (profile, eval-input) pair: the profile
               input and the evaluation trace are independent axes of
               Pipeline.run, which is exactly Fig. 13's experiment. *)
            let eval_on profile_trace =
              let oc =
                Core.Pipeline.run
                  {
                    Core.Pipeline.Options.default with
                    threshold = 0.5;
                    prefetch = Core.Pipeline.Fdip;
                    eval =
                      Some (Core.Pipeline.Eval.v ~warmup ~trace ~policy:Cache.Lru.make ());
                  }
                  ~source:program (Core.Pipeline.Trace profile_trace)
              in
              Option.get oc.Core.Pipeline.evaluation
            in
            let cross = eval_on eval0 in
            let own = eval_on trace in
            let s_cross = speedup ~base cross.Core.Pipeline.result in
            let s_own = speedup ~base own.Core.Pipeline.result in
            Summary.add gains s_cross;
            Summary.add gains_own s_own;
            Table.add_row table
              [ model.W.App_model.name; input.W.Executor.label; pct s_cross; pct s_own ]
          end)
        W.Executor.eval_inputs)
    chosen;
  Table.add_sep table;
  Table.add_row table [ "mean"; ""; pct (Summary.mean gains); pct (Summary.mean gains_own) ];
  Table.print table;
  print_newline ()

let ablation () =
  (* §IV "Invalidation vs. reducing LRU priority", injection granularity,
     and the prefetch-covered-window filter (DESIGN.md abl1/disc1). *)
  let table =
    Table.create
      ~title:
        "Ablations (FDIP, Ripple-LRU speedup over LRU):\n\
         invalidate vs demote (paper: demote slightly better on LRU, 1.6%->1.7%),\n\
         per-block hint cap, NLP window filter"
      ~columns:
        [
          ("application", Table.Left);
          ("invalidate", Table.Right);
          ("demote", Table.Right);
          ("cap=1", Table.Right);
          ("nlp+filter", Table.Right);
          ("nlp-filter", Table.Right);
        ]
  in
  let cols = Array.init 5 (fun _ -> Summary.create ()) in
  prewarm [ Core.Pipeline.Fdip; Core.Pipeline.Nlp ];
  List.iter
    (fun model ->
      let { workload; train; eval; warmup } = workload_of model in
      let program = workload.W.Cfg_gen.program in
      let fdip_base = (cell_of model Core.Pipeline.Fdip).lru in
      let nlp_base = (cell_of model Core.Pipeline.Nlp).lru in
      let run ?(mode = Core.Injector.Invalidate)
          ?(max_hints_per_block = Core.Injector.default_max_hints_per_block)
          ?(exclude = false) ~prefetch ~base () =
        let threshold = (cell_of model prefetch).ripple_lru.threshold in
        let oc =
          Core.Pipeline.run
            {
              Core.Pipeline.Options.default with
              threshold;
              mode;
              max_hints_per_block;
              exclude_prefetch_covered = exclude;
              prefetch;
              eval = Some (Core.Pipeline.Eval.v ~warmup ~trace:eval ~policy:Cache.Lru.make ());
            }
            ~source:program (Core.Pipeline.Trace train)
        in
        speedup ~base (Option.get oc.Core.Pipeline.evaluation).Core.Pipeline.result
      in
      let inv = run ~prefetch:Core.Pipeline.Fdip ~base:fdip_base () in
      let dem = run ~mode:Core.Injector.Demote ~prefetch:Core.Pipeline.Fdip ~base:fdip_base () in
      let cap1 = run ~max_hints_per_block:1 ~prefetch:Core.Pipeline.Fdip ~base:fdip_base () in
      let nlp_f = run ~exclude:true ~prefetch:Core.Pipeline.Nlp ~base:nlp_base () in
      let nlp_nf = run ~exclude:false ~prefetch:Core.Pipeline.Nlp ~base:nlp_base () in
      let vals = [ inv; dem; cap1; nlp_f; nlp_nf ] in
      List.iteri (fun i v -> Summary.add cols.(i) v) vals;
      Table.add_row table (model.W.App_model.name :: List.map pct vals))
    apps;
  Table.add_sep table;
  Table.add_row table
    ("mean" :: Array.to_list (Array.map (fun s -> pct (Summary.mean s)) cols));
  Table.print table;
  print_newline ()

let lbr () =
  (* §III-A: PT vs LBR-sampled profiling.  Stitched LBR samples see only
     a fraction of execution; Ripple's coverage and gains degrade
     accordingly — the quantitative case for PT-based profiling. *)
  let table =
    Table.create
      ~title:
        "Profiling source ablation (FDIP, Ripple-LRU): full PT trace vs stitched\n\
         LBR samples (period 120 blocks, depth 16)"
      ~columns:
        [
          ("application", Table.Left);
          ("LBR sees", Table.Right);
          ("PT speedup", Table.Right);
          ("PT coverage", Table.Right);
          ("LBR speedup", Table.Right);
          ("LBR coverage", Table.Right);
        ]
  in
  let lbr_apps = [ W.Apps.cassandra; W.Apps.tomcat; W.Apps.verilator ] in
  ensure_cells (List.map (fun m -> (m, Core.Pipeline.Fdip)) lbr_apps);
  List.iter
    (fun model ->
      let { workload; train; eval; warmup } = workload_of model in
      let program = workload.W.Cfg_gen.program in
      let base = (cell_of model Core.Pipeline.Fdip).lru in
      let eval_profile ?(pt_roundtrip = true) profile_trace =
        let oc =
          Core.Pipeline.run
            {
              Core.Pipeline.Options.default with
              pt_roundtrip;
              prefetch = Core.Pipeline.Fdip;
              eval = Some (Core.Pipeline.Eval.v ~warmup ~trace:eval ~policy:Cache.Lru.make ());
            }
            ~source:program (Core.Pipeline.Trace profile_trace)
        in
        Option.get oc.Core.Pipeline.evaluation
      in
      let pt_ev = eval_profile train in
      let samples = Ripple_trace.Lbr.capture program ~trace:train ~period:120 ~depth:16 in
      let stitched = Ripple_trace.Lbr.stitched_trace samples in
      let lbr_ev = eval_profile ~pt_roundtrip:false stitched in
      Table.add_row table
        [
          model.W.App_model.name;
          pct0 (Ripple_trace.Lbr.coverage_fraction samples ~trace_length:(Array.length train));
          pct (speedup ~base pt_ev.Core.Pipeline.result);
          pct0 pt_ev.Core.Pipeline.coverage;
          pct (speedup ~base lbr_ev.Core.Pipeline.result);
          pct0 lbr_ev.Core.Pipeline.coverage;
        ])
    lbr_apps;
  Table.print table;
  print_newline ()

let geometry () =
  (* §V: Ripple emits binaries per target I-cache geometry.  Analyze and
     evaluate at matched geometries, plus one deliberate mismatch. *)
  let geometries =
    [
      ("16 KiB / 4-way", Cache.Geometry.v ~size_bytes:(16 * 1024) ~ways:4);
      ("32 KiB / 8-way", Cache.Geometry.l1i);
      ("64 KiB / 8-way", Cache.Geometry.v ~size_bytes:(64 * 1024) ~ways:8);
    ]
  in
  let model = W.Apps.tomcat in
  let { workload; train; eval; warmup } = workload_of model in
  let program = workload.W.Cfg_gen.program in
  let table =
    Table.create
      ~title:
        "Target-geometry sensitivity (tomcat, FDIP, Ripple-LRU): profiles are\n\
         analyzed for the geometry they run on, plus one mismatched pair (§V)"
      ~columns:
        [
          ("analyzed for", Table.Left);
          ("runs on", Table.Left);
          ("LRU MPKI", Table.Right);
          ("Ripple speedup", Table.Right);
        ]
  in
  let run ~analysis_geom ~run_geom ~alabel ~rlabel =
    let config_a = { Cpu.Config.default with Cpu.Config.l1i = analysis_geom } in
    let config_r = { Cpu.Config.default with Cpu.Config.l1i = run_geom } in
    (* Analysis and execution geometries differ here by design, which one
       Pipeline.run (one config per run) cannot express: instrument under
       config_a via the façade, then time the shipped binary under
       config_r with a plain simulator run (speedup only needs IPC). *)
    let instrumented =
      (Core.Pipeline.run
         { Core.Pipeline.Options.default with config = config_a; prefetch = Core.Pipeline.Fdip }
         ~source:program (Core.Pipeline.Trace train))
        .Core.Pipeline.program
    in
    let base =
      Cpu.Simulator.run ~config:config_r ~warmup ~program ~trace:eval ~policy:Cache.Lru.make
        ~prefetcher:(Core.Pipeline.prefetcher_of ~config:config_r Core.Pipeline.Fdip) ()
    in
    let ripple =
      Cpu.Simulator.run ~config:config_r ~warmup ~program:instrumented ~trace:eval
        ~policy:Cache.Lru.make
        ~prefetcher:(Core.Pipeline.prefetcher_of ~config:config_r Core.Pipeline.Fdip) ()
    in
    Table.add_row table
      [
        alabel;
        rlabel;
        Printf.sprintf "%.3f" base.Cpu.Simulator.mpki;
        pct (speedup ~base ripple);
      ]
  in
  List.iter
    (fun (label, geom) -> run ~analysis_geom:geom ~run_geom:geom ~alabel:label ~rlabel:label)
    geometries;
  Table.add_sep table;
  run
    ~analysis_geom:Cache.Geometry.l1i
    ~run_geom:(Cache.Geometry.v ~size_bytes:(16 * 1024) ~ways:4)
    ~alabel:"32 KiB / 8-way" ~rlabel:"16 KiB / 4-way (mismatch)";
  Table.print table;
  print_newline ()

let extras () =
  (* Beyond the paper's matrix: the SHiP policy (§VI related work) and
     the RDIP prefetcher (§I/§VI), for context. *)
  let table =
    Table.create
      ~title:
        "Extra comparison points: SHiP replacement (vs LRU, FDIP) and the RDIP\n\
         prefetcher (vs no-prefetch LRU baseline)"
      ~columns:
        [
          ("application", Table.Left);
          ("SHiP speedup", Table.Right);
          ("RDIP speedup", Table.Right);
          ("RDIP MPKI", Table.Right);
          ("FDIP MPKI", Table.Right);
        ]
  in
  let s1 = Summary.create () and s2 = Summary.create () in
  prewarm [ Core.Pipeline.Fdip; Core.Pipeline.No_prefetch ];
  (* SHiP is a registry policy, so it runs as one spec per app through
     the pool; RDIP has no prefetch variant in the spec vocabulary and
     stays inline. *)
  let ship_spec model =
    Exp.Spec.v ~n_instrs:!n_instrs ~seed:1234 ~prefetch:Core.Pipeline.Fdip
      ~app:model.W.App_model.name (Exp.Spec.Policy "ship")
  in
  let ship_cells = run_specs (List.map ship_spec apps) in
  List.iter
    (fun model ->
      let { workload; eval; warmup; _ } = workload_of model in
      let program = workload.W.Cfg_gen.program in
      let fdip_cell = cell_of model Core.Pipeline.Fdip in
      let none_cell = cell_of model Core.Pipeline.No_prefetch in
      let ship =
        (require (Option.get (Exp.Runner.find ship_cells (ship_spec model))))
          .Exp.Runner.result
      in
      let rdip =
        Cpu.Simulator.run ~warmup ~program ~trace:eval ~policy:Cache.Lru.make
          ~prefetcher:(fun program -> Ripple_prefetch.Rdip.create ~program ()) ()
      in
      let ship_speedup = speedup ~base:fdip_cell.lru ship in
      let rdip_speedup = speedup ~base:none_cell.lru rdip in
      Summary.add s1 ship_speedup;
      Summary.add s2 rdip_speedup;
      Table.add_row table
        [
          model.W.App_model.name;
          pct ship_speedup;
          pct rdip_speedup;
          Printf.sprintf "%.2f" rdip.Cpu.Simulator.mpki;
          Printf.sprintf "%.2f" fdip_cell.lru.Cpu.Simulator.mpki;
        ])
    apps;
  Table.add_sep table;
  Table.add_row table [ "mean"; pct (Summary.mean s1); pct (Summary.mean s2); ""; "" ];
  Table.print table;
  print_newline ()

let micro () =
  (* Bechamel microbenchmarks of the simulator hot paths. *)
  let open Bechamel in
  let model = W.Apps.kafka in
  let { workload; eval; _ } = workload_of model in
  let program = workload.W.Cfg_gen.program in
  let short = Array.sub eval 0 (min 20_000 (Array.length eval)) in
  let stream =
    Cpu.Simulator.record_stream ~program ~trace:short
      ~prefetcher:Cpu.Simulator.prefetcher_none ()
  in
  let cache_access () =
    let cache =
      Cache.Cache.create ~geometry:Cache.Geometry.l1i ~policy:Cache.Lru.make ()
    in
    Cache.Access_stream.iter
      (fun acc -> ignore (Cache.Cache.access_packed cache acc))
      stream
  in
  let belady_replay () =
    ignore (Cache.Belady.simulate Cache.Geometry.l1i ~mode:Cache.Belady.Min stream)
  in
  let pt_roundtrip () =
    let encoded = Ripple_trace.Pt.encode program short in
    ignore (Ripple_trace.Pt.decode program encoded)
  in
  let tests =
    Test.make_grouped ~name:"ripple" ~fmt:"%s/%s"
      [
        Test.make ~name:"l1i-lru-access-stream" (Staged.stage cache_access);
        Test.make ~name:"belady-min-replay" (Staged.stage belady_replay);
        Test.make ~name:"pt-encode-decode" (Staged.stage pt_roundtrip);
      ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 2.0) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "Microbenchmarks (monotonic clock, ns per run):\n";
  Hashtbl.iter
    (fun name (estimate : Analyze.OLS.t) ->
      match Analyze.OLS.estimates estimate with
      | Some (v :: _) -> Printf.printf "  %-32s %12.0f ns\n" name v
      | Some [] | None -> Printf.printf "  %-32s (no estimate)\n" name)
    results;
  print_newline ()

let smoke () =
  (* End-to-end exercise of the experiment runner at tiny instruction
     budgets — the full cell pipeline (policy fan-out, ideal bounds,
     Ripple threshold search, random-policy second wave, aggregation)
     over three apps and FDIP, sized to finish in seconds.  `--jobs`
     scales it across domains; results are identical at any pool size. *)
  n_instrs := min !n_instrs 150_000;
  gc_in_jsonl := true;
  let smoke_apps = [ W.Apps.cassandra; W.Apps.finagle_http; W.Apps.verilator ] in
  (* Table I is free (no simulation) and covers every registry policy,
     so the smoke artefact pins the storage accounting too. *)
  tab1 ();
  ensure_cells (List.map (fun m -> (m, Core.Pipeline.Fdip)) smoke_apps);
  let table =
    Table.create ~title:"smoke sweep (FDIP, tiny budgets — shape check only)"
      ~columns:
        [
          ("application", Table.Left);
          ("lru mpki", Table.Right);
          ("ideal $", Table.Right);
          ("ideal repl", Table.Right);
          ("Ripple-LRU", Table.Right);
          ("Ripple-Rand", Table.Right);
          ("trrip", Table.Right);
          ("ehc-hawkeye", Table.Right);
          ("ship-sb", Table.Right);
          ("coverage", Table.Right);
        ]
  in
  List.iter
    (fun model ->
      let cell = cell_of model Core.Pipeline.Fdip in
      let base = cell.lru in
      Table.add_row table
        [
          model.W.App_model.name;
          Printf.sprintf "%.2f" base.Cpu.Simulator.mpki;
          pct (speedup ~base cell.ideal_cache);
          pct (speedup ~base cell.oracle);
          pct (speedup ~base cell.ripple_lru.ev.Core.Pipeline.result);
          pct (speedup ~base cell.ripple_random.Core.Pipeline.result);
          pct (speedup ~base cell.trrip);
          pct (speedup ~base cell.ehc_hawkeye);
          pct (speedup ~base cell.ship_sb);
          pct0 cell.ripple_lru.ev.Core.Pipeline.coverage;
        ])
    smoke_apps;
  Table.print table;
  print_newline ()

let all () =
  prewarm prefetches;
  tab2 ();
  tab1 ();
  fig1 ();
  fig2 ();
  fig3 ();
  fig6 ();
  fig7_8 `Speedup ();
  fig7_8 `Mpki ();
  zoo ();
  fig9_12 ();
  fig13 ();
  ablation ();
  lbr ();
  geometry ();
  extras ()

let () =
  let commands =
    [
      ("tab1", tab1);
      ("tab2", tab2);
      ("fig1", fig1);
      ("fig2", fig2);
      ("fig3", fig3);
      ("fig6", fig6);
      ("fig7", fig7_8 `Speedup);
      ("fig8", fig7_8 `Mpki);
      ("fig9", fig9_12);
      ("fig10", fig9_12);
      ("fig11", fig9_12);
      ("fig12", fig9_12);
      ("fig13", fig13);
      ("zoo", zoo);
      ("ablation", ablation);
      ("lbr", lbr);
      ("geometry", geometry);
      ("extras", extras);
      ("micro", micro);
      ("smoke", smoke);
      ("all", all);
    ]
  in
  let rec split_flags targets = function
    | "--jobs" :: n :: rest ->
      jobs := Some (int_of_string n);
      split_flags targets rest
    | "--out" :: path :: rest ->
      out_path := Some path;
      split_flags targets rest
    | "--metrics" :: path :: rest ->
      metrics_path := Some path;
      split_flags targets rest
    | arg :: rest -> split_flags (arg :: targets) rest
    | [] -> List.rev targets
  in
  let args = split_flags [] (List.tl (Array.to_list Sys.argv)) in
  let args = if args = [] then [ "all" ] else args in
  List.iter
    (fun arg ->
      match List.assoc_opt arg commands with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown target %S; available: %s\n" arg
          (String.concat ", " (List.map fst commands));
        exit 1)
    args;
  write_cells ();
  write_metrics ()
