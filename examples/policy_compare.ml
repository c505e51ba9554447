(* Replacement-policy shoot-out on one application (§II-D in miniature).

     dune exec examples/policy_compare.exe -- [app] [n_instrs]

   Runs every registered replacement policy at its defaults, the ideal
   replacement bound, and Ripple over the chosen application under all
   three prefetchers. *)

module W = Ripple_workloads
module Cache = Ripple_cache
module Registry = Ripple_cache.Registry
module Simulator = Ripple_cpu.Simulator
module Pipeline = Ripple_core.Pipeline
module Table = Ripple_util.Table

let () =
  let app = if Array.length Sys.argv > 1 then Sys.argv.(1) else "tomcat" in
  let n_instrs =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1_500_000
  in
  let model =
    match W.Apps.by_name app with
    | Some m -> m
    | None ->
      Printf.eprintf "unknown app %S; known: %s\n" app
        (String.concat ", " (List.map (fun m -> m.W.App_model.name) W.Apps.all));
      exit 1
  in
  let workload = W.Cfg_gen.generate model in
  let program = workload.W.Cfg_gen.program in
  let profile = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
  let eval = W.Executor.run workload ~input:W.Executor.eval_inputs.(0) ~n_instrs in
  let warmup = Array.length eval / 2 in
  List.iter
    (fun prefetch ->
      let prefetcher = Pipeline.prefetcher_of prefetch in
      let run policy = Simulator.run ~warmup ~program ~trace:eval ~policy ~prefetcher () in
      let lru = run Cache.Lru.make in
      let rows =
        List.map
          (fun (e : Registry.entry) ->
            if e.Registry.name = "lru" then ("LRU (baseline)", lru)
            else (e.Registry.display, run (Registry.factory e.Registry.name)))
          Registry.all
        @ [
            ( "ideal replacement",
              Simulator.oracle ~warmup ~mode:(Pipeline.belady_mode_of prefetch) ~program
                ~trace:eval ~prefetcher () );
          ]
      in
      let outcome =
        Pipeline.run
          {
            Pipeline.Options.default with
            prefetch;
            eval = Some (Pipeline.Eval.v ~warmup ~trace:eval ~policy:Cache.Lru.make ());
          }
          ~source:program (Pipeline.Trace profile)
      in
      let ripple = Option.get outcome.Pipeline.evaluation in
      let rows = rows @ [ ("Ripple-LRU", ripple.Pipeline.result) ] in
      let table =
        Table.create
          ~title:(Printf.sprintf "%s — prefetcher: %s" app (Pipeline.prefetch_name prefetch))
          ~columns:
            [ ("policy", Table.Left); ("MPKI", Table.Right); ("speedup vs LRU", Table.Right) ]
      in
      List.iter
        (fun (name, r) ->
          Table.add_row table
            [
              name;
              Printf.sprintf "%.3f" r.Simulator.mpki;
              Printf.sprintf "%+.2f%%" (100.0 *. ((r.Simulator.ipc /. lru.Simulator.ipc) -. 1.0));
            ])
        rows;
      Table.print table;
      print_newline ())
    [ Pipeline.No_prefetch; Pipeline.Nlp; Pipeline.Fdip ]
