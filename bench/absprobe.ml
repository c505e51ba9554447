(* Timing probe: run Abs_cache.analyze on stock apps' generated CFGs and
   report wall time, solver statistics and slice totals, one line per
   app.

     dune exec --profile release bench/absprobe.exe [app]

   Without an argument it runs all nine apps.  Useful when tuning the
   fixpoint engine or the slice construction: the nine apps are the
   realistic workload, and a slice walk that blows up on one CFG shape
   shows here as a [walked] count far above the others. *)
module W = Ripple_workloads
module Abs = Ripple_analysis.Abs_cache
module Fixpoint = Ripple_analysis.Fixpoint

let probe (model : W.App_model.t) =
  let workload = W.Cfg_gen.generate model in
  let program = workload.W.Cfg_gen.program in
  let blocks = Ripple_isa.Program.blocks program in
  let entry = Ripple_isa.Program.entry program in
  let lines = Hashtbl.create 1024 in
  Array.iter
    (fun b ->
      List.iter (fun l -> Hashtbl.replace lines l ()) (Ripple_isa.Basic_block.lines b))
    blocks;
  let t0 = Unix.gettimeofday () in
  let abs = Abs.analyze ~geometry:Ripple_cache.Geometry.l1i ~entry blocks in
  let t1 = Unix.gettimeofday () in
  let st = Abs.solver_stats abs in
  let sl = Abs.slice_stats abs in
  Printf.printf
    "app=%s blocks=%d lines=%d analyze=%.2fs iterations=%d visits=%d slice_nodes=%d \
     slice_edges=%d walked=%d\n\
     %!"
    model.W.App_model.name (Array.length blocks) (Hashtbl.length lines) (t1 -. t0)
    st.Fixpoint.iterations st.Fixpoint.visits sl.Abs.nodes sl.Abs.edges sl.Abs.walked

let () =
  let models =
    if Array.length Sys.argv > 1 then
      match W.Apps.by_name Sys.argv.(1) with
      | Some m -> [ m ]
      | None -> failwith ("unknown app " ^ Sys.argv.(1))
    else W.Apps.all
  in
  List.iter probe models
