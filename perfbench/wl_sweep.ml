(* sweep: a policy study through the experiment runner — every policy of
   the catalogue plus the Demand-MIN oracle, under FDIP, on kafka, drupal
   and verilator, over a domain pool of [nproc] workers.  No Ripple
   cells: cpu, cache and exp do all the work, and core and analysis
   none.  The three apps differ in footprint against the 32 KiB L1I:
   small (kafka), JIT-heavy (drupal) and sequential (verilator). *)

module W = Ripple_workloads
module Program = Ripple_isa.Program
module Bb_trace = Ripple_trace.Bb_trace
module Registry = Ripple_cache.Registry
module Belady = Ripple_cache.Belady
module Access_stream = Ripple_cache.Access_stream
module Stats = Ripple_cache.Stats
module Json = Ripple_util.Json
module Config = Ripple_cpu.Config
module Simulator = Ripple_cpu.Simulator
module Pipeline = Ripple_core.Pipeline
module Spec = Ripple_exp.Spec
module Runner = Ripple_exp.Runner
module Report = Ripple_exp.Report
module Pool = Ripple_exp.Pool
open Measure

let apps = [ "kafka"; "drupal"; "verilator" ]
let n_instrs = function Ctx.Full -> 2_000_000 | Ctx.Tiny -> 40_000
let prefetch = Pipeline.Fdip
let config = Config.default

(* The seed sets [Spec.seed] (which seeds the stochastic policies) and
   picks the evaluation input among #0..#3. *)
let eval_index ctx = Ctx.pick ctx 4

let spec (ctx : Ctx.t) app kind =
  Spec.v ~n_instrs:(n_instrs ctx.Ctx.size) ~seed:ctx.Ctx.seed ~input:(Spec.Eval (eval_index ctx))
    ~prefetch ~app kind

let specs ctx =
  List.concat_map
    (fun app ->
      List.map (fun p -> spec ctx app (Spec.Policy p)) Catalogue.policies
      @ [ spec ctx app Spec.Oracle ])
    apps

type app = {
  name : string;
  program : Program.t;
  eval : int array;
  instrs : int;  (** instructions in the evaluation trace *)
  counted : int;  (** of those, the ones past the half-trace warm-up *)
}

(* The runner generates its own inputs inside the cells; the set-up
   generates the same ones here, so the output checks know how many
   instructions each cell must have simulated. *)
let setup ?r (ctx : Ctx.t) =
  List.map
    (fun name ->
      let model = Option.get (W.Apps.by_name name) in
      let w = call r "workloads.generate_s" (fun () -> W.Cfg_gen.generate model) in
      let program = w.W.Cfg_gen.program in
      let eval =
        call r "workloads.execute_s" (fun () ->
            W.Executor.run w ~input:W.Executor.eval_inputs.(eval_index ctx)
              ~n_instrs:(n_instrs ctx.Ctx.size))
      in
      Option.iter (fun r -> Recorder.add r "workloads.blocks" (Float.of_int (Array.length eval))) r;
      let warmup = Array.length eval / 2 in
      {
        name;
        program;
        eval;
        instrs = Bb_trace.n_instrs program eval;
        counted = Bb_trace.n_instrs program (Array.sub eval warmup (Array.length eval - warmup));
      })
    apps

let jobs () = Pool.default_jobs ()

let result_of (c : Runner.cell) =
  match c.Runner.status with Runner.Done o -> Some o.Runner.result | _ -> None

let digest_of cells =
  Digest.of_strings
    (List.sort compare (String.split_on_char '\n' (Report.to_jsonl cells)))

let run ~trace (ctx : Ctx.t) =
  let t = Catalogue.tally () in
  let specs = specs ctx in
  (* One operation: the whole sweep.  Each cell counts as attempted; a
     cell that is not [Done], or did not simulate exactly its trace's
     instructions past the warm-up, counts as failed. *)
  let sweep apps =
    let cells = Runner.run ~jobs:(jobs ()) ~quiet:true specs in
    List.iter
      (fun (c : Runner.cell) ->
        Catalogue.attempt t;
        let app = List.find (fun a -> a.name = c.Runner.spec.Spec.app) apps in
        let name = Spec.to_string c.Runner.spec in
        match result_of c with
        | Some res ->
          Catalogue.check t (name ^ ": instructions") (res.Simulator.instructions = app.counted)
        | None -> Catalogue.check t (name ^ ": done") false)
      cells;
    cells
  in
  let trace_instrs apps =
    List.fold_left
      (fun n (s : Spec.t) -> n + (List.find (fun a -> a.name = s.Spec.app) apps).instrs)
      0 specs
  in
  if not trace then begin
    let apps, setup_s = Ctx.repeat_setup Ctx.setups (fun () -> setup ctx) in
    let passes = Ctx.timed_loop ctx (fun () -> Ctx.measured (fun () -> digest_of (sweep apps))) in
    let first = List.hd passes.Ctx.results in
    Catalogue.check t "every pass has the first pass's digest"
      (List.for_all (String.equal first) passes.Ctx.results);
    let op_s = passes.Ctx.seconds in
    Catalogue.result t ~digest:first
      ~samples:[ ("passes", List.length op_s); ("cells", List.length specs) ]
      ~ops_ms:(List.map (( *. ) 1000.0) op_s)
      ~metrics:
        [
          ("setup_s", setup_s);
          ("peak_rss_mb", median passes.Ctx.peak_mb);
          ("op_p50_ms", 1000.0 *. median op_s);
          ("minstr_per_s", Float.of_int (trace_instrs apps) /. median op_s /. 1e6);
        ]
  end
  else begin
    let r = Recorder.create () in
    let apps = setup ~r ctx in
    let cells, untraced_s = time (fun () -> sweep apps) in
    (* The same cells composed serially from the simulator's public
       functions, each call timed; every result must equal its cell's. *)
    let prefetcher = Pipeline.prefetcher_of ~config prefetch in
    let same_as_cell s res =
      match Option.bind (Runner.find cells s) result_of with
      | Some cell_res ->
        Json.equal (Simulator.result_to_json cell_res) (Simulator.result_to_json res)
      | None -> false
    in
    let composed_ok = ref true in
    let (), traced_s =
      time (fun () ->
          List.iter
            (fun app ->
              let warmup = Array.length app.eval / 2 in
              List.iter
                (fun p ->
                  let s = spec ctx app.name (Spec.Policy p) in
                  let res, _ =
                    Recorder.call r ("cpu.simulate_s." ^ p) (fun () ->
                        Simulator.run_trace ~config ~warmup ~program:app.program
                          ~trace:(Simulator.Trace.Blocks app.eval)
                          ~policy:(Registry.factory ~seed:(Spec.prng_seed s) p)
                          ~prefetcher ())
                  in
                  Recorder.add r ("accesses." ^ p)
                    (Float.of_int (Stats.total_accesses res.Simulator.l1i));
                  if p = "lru" then Recorder.sample r "mpki.lru" res.Simulator.mpki;
                  if not (same_as_cell s res) then composed_ok := false)
                Catalogue.policies;
              let mode = Pipeline.belady_mode_of prefetch in
              let stream, pos =
                Recorder.call r "cpu.record_s" (fun () ->
                    Simulator.record_stream_indexed ~config ~program:app.program ~trace:app.eval
                      ~prefetcher ())
              in
              Recorder.add r "cpu.accesses" (Float.of_int (Access_stream.length stream));
              let count_from = Simulator.stream_count_from ~stream_pos:pos ~warmup in
              let replay =
                Recorder.call r "cache.belady_s" (fun () ->
                    Belady.simulate ~record_fills:true ~record_evictions:false ~count_from
                      config.Config.l1i ~mode stream)
              in
              let res =
                Recorder.call r "cache.oracle_s" (fun () ->
                    Simulator.oracle ~config ~warmup ~stream:(stream, pos) ~replay ~mode
                      ~program:app.program ~trace:app.eval ~prefetcher ())
              in
              Access_stream.close stream;
              if not (same_as_cell (spec ctx app.name Spec.Oracle) res) then composed_ok := false)
            apps)
    in
    Catalogue.check t "traced composition equals the runner's cells" !composed_ok;
    let elapsed = List.map (fun (c : Runner.cell) -> c.Runner.elapsed) cells in
    let simulate_s p = Recorder.get r ("cpu.simulate_s." ^ p) in
    let metrics =
      List.map
        (fun p ->
          ("cpu.maccesses_per_s." ^ p, Recorder.get r ("accesses." ^ p) /. simulate_s p /. 1e6))
        Catalogue.policies
      @ [
          ("cpu.simulate_s", sum (List.map simulate_s Catalogue.policies));
          ("cpu.alloc_mwords", Recorder.alloc_mwords r "cpu");
          ("cache.mpki.lru", mean (Recorder.samples r "mpki.lru"));
          ("exp.cells", Float.of_int (List.length cells));
          ("exp.cell_p50_s", median elapsed);
          ("exp.busy_frac", sum elapsed /. (Float.of_int (jobs ()) *. untraced_s));
          ("tracing.untraced_s", untraced_s);
          ("tracing.traced_s", traced_s);
        ]
    in
    Catalogue.result t ~digest:(digest_of cells)
      ~samples:[ ("passes", 1); ("cells", List.length specs) ]
      ~ops_ms:[ 1000.0 *. untraced_s ] ~metrics:(Catalogue.traced r metrics)
  end
