(* Tests for ripple.workloads: CFG generation and the trace executor. *)

module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program
module Pt = Ripple_trace.Pt
module Bb_trace = Ripple_trace.Bb_trace
module W = Ripple_workloads

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let small_model =
  {
    W.Apps.kafka with
    W.App_model.name = "test-app";
    seed = 123;
    n_functions = 120;
    hot_functions = 20;
    handler_blocks = 40;
  }

let test_generate_deterministic () =
  let a = W.Cfg_gen.generate small_model in
  let b = W.Cfg_gen.generate small_model in
  checki "same block count" (Program.n_blocks a.W.Cfg_gen.program)
    (Program.n_blocks b.W.Cfg_gen.program);
  checki "same bytes" (Program.static_bytes a.W.Cfg_gen.program)
    (Program.static_bytes b.W.Cfg_gen.program);
  check (Alcotest.array Alcotest.int) "same handlers" a.W.Cfg_gen.handlers b.W.Cfg_gen.handlers

let test_generate_seed_changes_program () =
  let a = W.Cfg_gen.generate small_model in
  let b = W.Cfg_gen.generate { small_model with W.App_model.seed = 124 } in
  checkb "different programs" true
    (Program.static_bytes a.W.Cfg_gen.program <> Program.static_bytes b.W.Cfg_gen.program)

let test_generate_structure () =
  let w = W.Cfg_gen.generate small_model in
  let program = w.W.Cfg_gen.program in
  checki "handler count" 20 (Array.length w.W.Cfg_gen.handlers);
  (* Dispatcher indirect-calls exactly the handlers. *)
  (match (Program.block program w.W.Cfg_gen.dispatcher).Basic_block.term with
  | Basic_block.Indirect_call { callees; return_to } ->
    check (Alcotest.array Alcotest.int) "dispatcher callees" w.W.Cfg_gen.handlers callees;
    checki "dispatcher loops" w.W.Cfg_gen.dispatcher return_to
  | _ -> Alcotest.fail "dispatcher should be an indirect call");
  checki "entry is dispatcher" w.W.Cfg_gen.dispatcher (Program.entry program)

let test_generate_behaviour_tables () =
  let w = W.Cfg_gen.generate small_model in
  let program = w.W.Cfg_gen.program in
  Program.iter
    (fun b ->
      match b.Basic_block.term with
      | Basic_block.Cond _ ->
        let p = w.W.Cfg_gen.bias.(b.Basic_block.id) in
        checkb "cond has bias in (0,1)" true (p > 0.0 && p < 1.0)
      | Basic_block.Indirect targets ->
        let ws = w.W.Cfg_gen.weights.(b.Basic_block.id) in
        checki "weights align with targets" (Array.length targets) (Array.length ws)
      | _ -> ())
    program

let test_generate_kernel_and_jit () =
  let w = W.Cfg_gen.generate { small_model with W.App_model.jit_fraction = 0.5 } in
  let kernel = ref 0 and jit = ref 0 and total = ref 0 in
  Program.iter
    (fun b ->
      incr total;
      if b.Basic_block.privilege = Basic_block.Kernel then incr kernel;
      if b.Basic_block.jit then incr jit)
    w.W.Cfg_gen.program;
  checkb "kernel blocks exist" true (!kernel > 0);
  checkb "jit blocks exist" true (!jit > 0);
  checkb "kernel is minority" true (!kernel * 2 < !total)

let test_executor_deterministic () =
  let w = W.Cfg_gen.generate small_model in
  let a = W.Executor.run w ~input:W.Executor.train ~n_instrs:50_000 in
  let b = W.Executor.run w ~input:W.Executor.train ~n_instrs:50_000 in
  check (Alcotest.array Alcotest.int) "same trace" a b

(* run_stream is run with the trace written through a backing instead of
   a doubling array — entry for entry the same, under both backings. *)
let test_executor_run_stream_equals_run () =
  let module Int_stream = Ripple_util.Int_stream in
  let w = W.Cfg_gen.generate small_model in
  let arr = W.Executor.run w ~input:W.Executor.train ~n_instrs:50_000 in
  List.iter
    (fun backing ->
      let s = W.Executor.run_stream ~backing w ~input:W.Executor.train ~n_instrs:50_000 in
      check (Alcotest.array Alcotest.int)
        (Int_stream.backing_name backing ^ " stream equals array")
        arr (Int_stream.to_array s);
      Int_stream.close s)
    [ Int_stream.Heap; Int_stream.Spill ];
  checki "no spill files leaked" 0 (List.length (Int_stream.Spill.live ()))

let test_executor_inputs_differ () =
  let w = W.Cfg_gen.generate small_model in
  let a = W.Executor.run w ~input:W.Executor.eval_inputs.(0) ~n_instrs:50_000 in
  let b = W.Executor.run w ~input:W.Executor.eval_inputs.(1) ~n_instrs:50_000 in
  checkb "different traces" true (a <> b)

let test_executor_reaches_target () =
  let w = W.Cfg_gen.generate small_model in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:50_000 in
  let instrs = Bb_trace.n_instrs w.W.Cfg_gen.program trace in
  checkb "at least target" true (instrs >= 50_000);
  checkb "not wildly over" true (instrs < 60_000)

let test_executor_trace_is_pt_encodable () =
  (* The executor must only follow legal CFG edges — PT encoding would
     reject anything else. *)
  let w = W.Cfg_gen.generate small_model in
  let trace = W.Executor.run w ~input:W.Executor.eval_inputs.(2) ~n_instrs:80_000 in
  let decoded = Pt.decode w.W.Cfg_gen.program (Pt.encode w.W.Cfg_gen.program trace) in
  check (Alcotest.array Alcotest.int) "roundtrip" trace decoded

let test_executor_covers_handlers () =
  let w = W.Cfg_gen.generate small_model in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:200_000 in
  let counts = Bb_trace.exec_counts w.W.Cfg_gen.program trace in
  let touched =
    Array.fold_left
      (fun acc entry -> if counts.(entry) > 0 then acc + 1 else acc)
      0 w.W.Cfg_gen.handlers
  in
  checkb "several handlers exercised" true (touched > 5);
  checkb "dispatcher is hot" true (counts.(w.W.Cfg_gen.dispatcher) > 10)

let test_sequential_dispatch_round_robin () =
  let model = { small_model with W.App_model.sequential_dispatch = true } in
  let w = W.Cfg_gen.generate model in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:400_000 in
  (* Count dispatcher->handler transitions (entry blocks can also repeat
     inside a request through loops, so exec counts would over-count). *)
  let dispatched = Hashtbl.create 32 in
  Array.iteri
    (fun i id ->
      if id = w.W.Cfg_gen.dispatcher && i + 1 < Array.length trace then begin
        let h = trace.(i + 1) in
        Hashtbl.replace dispatched h (1 + Option.value ~default:0 (Hashtbl.find_opt dispatched h))
      end)
    trace;
  let counts = Array.map (fun h -> Option.value ~default:0 (Hashtbl.find_opt dispatched h)) w.W.Cfg_gen.handlers in
  let mn = Array.fold_left min max_int counts in
  let mx = Array.fold_left max 0 counts in
  checkb "round robin is balanced" true (mx - mn <= 2)

let test_apps_all_distinct () =
  let names = List.map (fun m -> m.W.App_model.name) W.Apps.all in
  checki "nine apps" 9 (List.length names);
  checki "unique names" 9 (List.length (List.sort_uniq compare names));
  let seeds = List.map (fun m -> m.W.App_model.seed) W.Apps.all in
  checki "unique seeds" 9 (List.length (List.sort_uniq compare seeds))

let test_apps_by_name () =
  (match W.Apps.by_name "verilator" with
  | Some m -> checkb "sequential" true m.W.App_model.sequential_dispatch
  | None -> Alcotest.fail "verilator missing");
  checkb "unknown app" true (W.Apps.by_name "nope" = None)

let test_apps_jit_only_hhvm () =
  List.iter
    (fun m ->
      let is_hhvm =
        List.mem m.W.App_model.name [ "drupal"; "mediawiki"; "wordpress" ]
      in
      checkb (m.W.App_model.name ^ " jit flag") is_hhvm (m.W.App_model.jit_fraction > 0.0))
    W.Apps.all

let test_apps_footprints_multimegabyte () =
  List.iter
    (fun m ->
      let w = W.Cfg_gen.generate m in
      let kb = Program.static_bytes w.W.Cfg_gen.program / 1024 in
      checkb (Printf.sprintf "%s footprint %dKB >> 32KB" m.W.App_model.name kb) true (kb > 320))
    [ W.Apps.cassandra; W.Apps.wordpress ]

let suites =
  [
    ( "workloads.cfg_gen",
      [
        Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
        Alcotest.test_case "seed changes program" `Quick test_generate_seed_changes_program;
        Alcotest.test_case "structure" `Quick test_generate_structure;
        Alcotest.test_case "behaviour tables" `Quick test_generate_behaviour_tables;
        Alcotest.test_case "kernel and jit" `Quick test_generate_kernel_and_jit;
      ] );
    ( "workloads.executor",
      [
        Alcotest.test_case "deterministic" `Quick test_executor_deterministic;
        Alcotest.test_case "run_stream equals run" `Quick test_executor_run_stream_equals_run;
        Alcotest.test_case "inputs differ" `Quick test_executor_inputs_differ;
        Alcotest.test_case "reaches target" `Quick test_executor_reaches_target;
        Alcotest.test_case "pt encodable" `Quick test_executor_trace_is_pt_encodable;
        Alcotest.test_case "covers handlers" `Quick test_executor_covers_handlers;
        Alcotest.test_case "round robin" `Quick test_sequential_dispatch_round_robin;
      ] );
    ( "workloads.apps",
      [
        Alcotest.test_case "all distinct" `Quick test_apps_all_distinct;
        Alcotest.test_case "by name" `Quick test_apps_by_name;
        Alcotest.test_case "jit only hhvm" `Quick test_apps_jit_only_hhvm;
        Alcotest.test_case "footprints" `Quick test_apps_footprints_multimegabyte;
      ] );
  ]
