(* Reference for Simulator.run_trace: the single loop that drove the
   prefetcher, the L1I and the L2/L3 hierarchy together before the
   simulator was split into a front end (trace -> prefetcher -> access
   sequence) and a back end (L1I + hierarchy).  Kept as it was, less
   its sampled branch, except that the prefetcher learns the L1I's own
   misses through [on_miss] where it used to take a [~missed] flag; for
   the prefetchers that do not learn from misses (none, NLP, FDIP) that
   is the old loop exactly.  The properties in test_cpu.ml check the
   split simulator against it. *)

module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block
module Cache = Ripple_cache.Cache
module Stats = Ripple_cache.Stats
module Access = Ripple_cache.Access
module Prefetcher = Ripple_prefetch.Prefetcher
module Config = Ripple_cpu.Config
module Hierarchy = Ripple_cpu.Hierarchy
module Simulator = Ripple_cpu.Simulator
module Trace = Simulator.Trace
module Obs = Ripple_obs

let block_lines program =
  Array.map
    (fun b -> Array.of_list (Basic_block.lines b))
    (Program.blocks program)

let observe_duel obs l1 =
  match Cache.duel l1 with
  | None -> ()
  | Some d ->
    let reg = Obs.Run.registry obs in
    Simulator.register_obs reg;
    let add name v = Obs.Metric.add (Obs.Registry.counter reg name) v in
    add "ripple_duel_leader_a_misses" (Ripple_cache.Dueling.a_misses d);
    add "ripple_duel_leader_b_misses" (Ripple_cache.Dueling.b_misses d);
    add "ripple_duel_flips" (Ripple_cache.Dueling.flips d);
    Obs.Metric.set
      (Obs.Registry.gauge reg "ripple_duel_psel")
      (Float.of_int (Ripple_cache.Dueling.psel d))

let finish ~(config : Config.t) ~instructions ~hint_instructions ~miss_cycles ~l1i ~l2_served
    ~l3_served ~mem_served =
  let original = instructions - hint_instructions in
  let cycles =
    (config.Config.cpi_base *. Float.of_int original)
    +. (config.Config.hint_cpi *. Float.of_int hint_instructions)
    +. (config.Config.miss_exposure *. miss_cycles)
  in
  let ipc = if cycles > 0.0 then Float.of_int original /. cycles else 0.0 in
  {
    Simulator.instructions;
    hint_instructions;
    cycles;
    ipc;
    demand_misses = l1i.Stats.demand_misses;
    mpki = Stats.mpki l1i ~instructions:original;
    l1i;
    served_l2 = l2_served;
    served_l3 = l3_served;
    served_memory = mem_served;
  }

let run_trace ?(config = Config.default) ?(warmup = 0) ?obs
    ?(on_hint = fun ~at:_ _ ~resident:_ -> ()) ~program ~(trace : Trace.t) ~policy ~prefetcher
    () =
  let n = Trace.length trace in
  let l1 = Cache.create ~geometry:config.Config.l1i ~policy () in
  let hierarchy = Hierarchy.create config in
  let pf = prefetcher program in
  let lines = block_lines program in
  let blocks = Program.blocks program in
  let instructions = ref 0 in
  let hint_instructions = ref 0 in
  (* Penalties are integers; accumulating in an int avoids a boxed-float
     store per miss and converts once at the end.  (Bit-identical to
     float accumulation: every partial sum is far below 2^53.) *)
  let miss_cycles = ref 0 in
  let l2_served = ref 0 and l3_served = ref 0 and mem_served = ref 0 in
  let complete_prefetch (acc : Access.packed) =
    match Cache.access_packed l1 acc with
    | Cache.Hit -> ()
    | Cache.Miss -> ignore (Hierarchy.fetch hierarchy (Access.packed_line acc))
  in
  (* Issued accesses arrive consed (newest first); completing them in
     issue order without the [List.rev] copy means recursing to the tail
     first.  In-flight lists are bounded by the FTQ/issue width, so the
     recursion depth is small. *)
  let rec complete_all = function
    | [] -> ()
    | acc :: rest ->
      complete_all rest;
      complete_prefetch acc
  in
  (* Prefetches land [prefetch_latency_blocks] blocks after issue (the
     L2 round trip); slot [at mod slots] holds what completes as block
     [at] is fetched. *)
  let delay = max 0 config.Config.prefetch_latency_blocks in
  let slots = delay + 1 in
  let in_flight = Array.make slots [] in
  let flush_due ~at =
    let slot = at mod slots in
    complete_all in_flight.(slot);
    in_flight.(slot) <- []
  in
  let rec issue_all ~at = function
    | [] -> ()
    | (acc : Access.packed) :: rest ->
      let slot = (at + delay) mod slots in
      in_flight.(slot) <- acc :: in_flight.(slot);
      issue_all ~at rest
  in
  let demand ~block line =
    match Cache.access_packed l1 (Access.pack_demand ~line ~block) with
    | Cache.Hit -> false
    | Cache.Miss ->
      let served = Hierarchy.fetch hierarchy line in
      (match served with
      | Hierarchy.L2 -> incr l2_served
      | Hierarchy.L3 -> incr l3_served
      | Hierarchy.Memory -> incr mem_served);
      miss_cycles := !miss_cycles + Hierarchy.penalty config served;
      true
  in
  let reset_counters () =
    Stats.reset (Cache.stats l1);
    miss_cycles := 0;
    instructions := 0;
    hint_instructions := 0;
    l2_served := 0;
    l3_served := 0;
    mem_served := 0
  in
  let step at =
    let id = Trace.get trace at in
    let b = blocks.(id) in
    flush_due ~at;
    issue_all ~at (pf.Prefetcher.on_block b);
    let bl = lines.(id) in
    for i = 0 to Array.length bl - 1 do
      let missed = demand ~block:id bl.(i) in
      (match pf.Prefetcher.on_miss with Some f when missed -> f bl.(i) | _ -> ());
      issue_all ~at (pf.Prefetcher.on_demand ~line:bl.(i))
    done;
    let hints = b.Basic_block.hints in
    for i = 0 to Array.length hints - 1 do
      let hint = hints.(i) in
      let line = Basic_block.hint_line hint in
      on_hint ~at hint ~resident:(Cache.contains l1 line);
      (match hint with
      | Basic_block.Invalidate line -> Cache.invalidate l1 line
      | Basic_block.Demote line -> Cache.demote l1 line);
      incr hint_instructions
    done;
    instructions := !instructions + Basic_block.total_instrs b
  in
  (* Periodic IPC/MPKI samples in *virtual* time (the trace index), so
     the series is a pure function of the run — identical at any pool
     size.  At most ~16 samples per run; the per-block cost without a
     sampler is one match. *)
  let sampler =
    match obs with
    | None -> None
    | Some obs ->
      let reg = Obs.Run.registry obs in
      Simulator.register_obs reg;
      let ipc_series = Obs.Registry.series reg "ripple_sim_ipc" in
      let mpki_series = Obs.Registry.series reg "ripple_sim_mpki" in
      let every = max 1 (n / 16) in
      Some
        (fun at ->
          if (at + 1) mod every = 0 then begin
            let original = !instructions - !hint_instructions in
            if original > 0 then begin
              let cycles =
                (config.Config.cpi_base *. Float.of_int original)
                +. (config.Config.hint_cpi *. Float.of_int !hint_instructions)
                +. (config.Config.miss_exposure *. Float.of_int !miss_cycles)
              in
              Obs.Metric.sample ipc_series ~at
                (if cycles > 0.0 then Float.of_int original /. cycles else 0.0);
              Obs.Metric.sample mpki_series ~at
                (Stats.mpki (Cache.stats l1) ~instructions:original)
            end
          end)
  in
  for at = 0 to n - 1 do
    (* Steady state: warm the caches and predictors, then zero the
       counters at the warm-up boundary. *)
    if at = warmup && warmup > 0 then reset_counters ();
    step at;
    match sampler with Some f -> f at | None -> ()
  done;
  let result =
    finish ~config ~instructions:!instructions ~hint_instructions:!hint_instructions
      ~miss_cycles:(Float.of_int !miss_cycles) ~l1i:(Cache.stats l1)
      ~l2_served:!l2_served ~l3_served:!l3_served ~mem_served:!mem_served
  in
  (match obs with
  | Some o ->
    Simulator.observe_result o result;
    observe_duel o l1
  | None -> ());
  result
