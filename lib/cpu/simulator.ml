module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block
module Cache = Ripple_cache.Cache
module Stats = Ripple_cache.Stats
module Access = Ripple_cache.Access
module Access_stream = Ripple_cache.Access_stream
module Belady = Ripple_cache.Belady
module Lru = Ripple_cache.Lru
module Prefetcher = Ripple_prefetch.Prefetcher
module Nlp = Ripple_prefetch.Nlp
module Fdip = Ripple_prefetch.Fdip
module Int_stream = Ripple_util.Int_stream
module Prng = Ripple_util.Prng

type result = {
  instructions : int;
  hint_instructions : int;
  cycles : float;
  ipc : float;
  demand_misses : int;
  mpki : float;
  l1i : Stats.t;
  served_l2 : int;
  served_l3 : int;
  served_memory : int;
}

module Json = Ripple_util.Json

let result_to_json (r : result) =
  let l1i = r.l1i in
  Json.Obj
    [
      ("instructions", Json.Int r.instructions);
      ("hint_instructions", Json.Int r.hint_instructions);
      ("cycles", Json.Float r.cycles);
      ("ipc", Json.Float r.ipc);
      ("demand_misses", Json.Int r.demand_misses);
      ("mpki", Json.Float r.mpki);
      ("served_l2", Json.Int r.served_l2);
      ("served_l3", Json.Int r.served_l3);
      ("served_memory", Json.Int r.served_memory);
      ( "l1i",
        Json.Obj
          [
            ("demand_accesses", Json.Int l1i.Stats.demand_accesses);
            ("demand_misses", Json.Int l1i.Stats.demand_misses);
            ("demand_misses_cold", Json.Int l1i.Stats.demand_misses_cold);
            ("prefetch_accesses", Json.Int l1i.Stats.prefetch_accesses);
            ("prefetch_fills", Json.Int l1i.Stats.prefetch_fills);
            ("evictions", Json.Int l1i.Stats.evictions);
            ("replacement_decisions", Json.Int l1i.Stats.replacement_decisions);
            ("hinted_fills", Json.Int l1i.Stats.hinted_fills);
            ("invalidate_hits", Json.Int l1i.Stats.invalidate_hits);
            ("invalidate_misses", Json.Int l1i.Stats.invalidate_misses);
            ("demotes", Json.Int l1i.Stats.demotes);
            ("fill_bypasses", Json.Int l1i.Stats.fill_bypasses);
          ] );
    ]

(* A basic-block trace by index: the materialized [int array] the tests
   and small drivers use, or an [Int_stream] so a 100 M-block trace can
   live in an mmap spill file instead of the heap. *)
module Trace = struct
  type t = Blocks of int array | Stream of Int_stream.t

  let of_blocks a = Blocks a
  let of_stream s = Stream s
  let length = function Blocks a -> Array.length a | Stream s -> Int_stream.length s

  (* Loop-bounded callers only: no bounds check on the array case. *)
  let get t i =
    match t with
    | Blocks a -> Array.unsafe_get a i
    | Stream s -> Int_stream.unsafe_get s i

  let close = function Blocks _ -> () | Stream s -> Int_stream.close s
end

(* SimPoint-style sampled simulation: K measurement windows chosen
   deterministically from a seed, one per equal segment of the
   steady-state region, each replayed from the warm-up checkpoint. *)
module Sampling = struct
  type t = { windows : int; window_blocks : int; seed : int }

  let v ?(seed = 1) ~windows ~window_blocks () =
    if windows <= 0 then invalid_arg "Sampling.v: windows must be positive";
    if window_blocks <= 0 then invalid_arg "Sampling.v: window_blocks must be positive";
    { windows; window_blocks; seed }

  type report = {
    spans : (int * int) array;
    measured_blocks : int;
    total_blocks : int;
    coverage : float;
  }

  (* Stratified selection: one window per equal segment of [warmup, n),
     offset uniformly within its segment.  When the requested windows
     cover the whole region the answer degenerates to the full region —
     and the sampled run is then exactly the full run. *)
  let select ~warmup ~n t =
    let span = n - warmup in
    if span <= 0 then [||]
    else if t.windows * t.window_blocks >= span then [| (warmup, n) |]
    else begin
      let seg = span / t.windows in
      let w = min t.window_blocks seg in
      let rng = Prng.create ~seed:t.seed in
      Array.init t.windows (fun i ->
          let base = warmup + (i * seg) in
          let slack = seg - w in
          let off = if slack > 0 then Prng.int rng (slack + 1) else 0 in
          (base + off, base + off + w))
    end

  let report_of_spans ~warmup ~n spans =
    let measured = Array.fold_left (fun acc (s, e) -> acc + e - s) 0 spans in
    let total = max 0 (n - warmup) in
    {
      spans;
      measured_blocks = measured;
      total_blocks = total;
      coverage = (if total = 0 then 1.0 else Float.of_int measured /. Float.of_int total);
    }

  let report_to_json r =
    Json.Obj
      [
        ("windows", Json.Int (Array.length r.spans));
        ( "spans",
          Json.List
            (Array.to_list
               (Array.map (fun (s, e) -> Json.List [ Json.Int s; Json.Int e ]) r.spans))
        );
        ("measured_blocks", Json.Int r.measured_blocks);
        ("total_blocks", Json.Int r.total_blocks);
        ("coverage", Json.Float r.coverage);
      ]
end

module Obs = Ripple_obs

(* The simulator's metric vocabulary.  [register_obs] is find-or-create,
   so callers (the pipeline, the experiment runner) may pre-register the
   whole family to fix a snapshot's schema before any event fires. *)
let obs_counter reg name help = Obs.Registry.counter reg ~help name

let register_obs reg =
  let c name help = ignore (obs_counter reg name help) in
  c "ripple_sim_instructions" "retired instructions, hints included";
  c "ripple_sim_hint_instructions" "retired Ripple hint instructions";
  c "ripple_sim_demand_accesses" "L1I demand accesses";
  c "ripple_sim_demand_misses" "L1I demand misses";
  c "ripple_sim_demand_misses_cold" "compulsory L1I demand misses";
  c "ripple_sim_prefetch_fills" "prefetches that missed and filled";
  c "ripple_sim_evictions" "valid L1I lines displaced by fills";
  c "ripple_sim_replacement_decisions" "fills that picked a victim";
  c "ripple_sim_hinted_fills" "fills into ways freed by a Ripple hint";
  c "ripple_sim_invalidate_hits" "invalidation hints that found their line";
  c "ripple_sim_invalidate_misses" "invalidation hints to an absent line";
  c "ripple_sim_demotes" "demote hints executed";
  c "ripple_sim_fill_bypasses" "misses the policy declined to install";
  (* Set-dueling telemetry: zero unless the policy carries a Dueling
     component, but always registered so the metric vocabulary (and the
     pinned docs/metrics.schema) is identical for every policy. *)
  c "ripple_duel_leader_a_misses" "misses in flavour-A leader sets";
  c "ripple_duel_leader_b_misses" "misses in flavour-B leader sets";
  c "ripple_duel_flips" "follower-selection changes of the policy duel";
  ignore
    (Obs.Registry.gauge reg ~help:"final PSEL of the policy's set duel" "ripple_duel_psel");
  ignore (Obs.Registry.series reg ~help:"periodic IPC over virtual time" "ripple_sim_ipc");
  ignore (Obs.Registry.series reg ~help:"periodic MPKI over virtual time" "ripple_sim_mpki")

let observe_result obs (r : result) =
  let reg = Obs.Run.registry obs in
  register_obs reg;
  let add name v = Obs.Metric.add (Obs.Registry.counter reg name) v in
  add "ripple_sim_instructions" r.instructions;
  add "ripple_sim_hint_instructions" r.hint_instructions;
  add "ripple_sim_demand_accesses" r.l1i.Stats.demand_accesses;
  add "ripple_sim_demand_misses" r.l1i.Stats.demand_misses;
  add "ripple_sim_demand_misses_cold" r.l1i.Stats.demand_misses_cold;
  add "ripple_sim_prefetch_fills" r.l1i.Stats.prefetch_fills;
  add "ripple_sim_evictions" r.l1i.Stats.evictions;
  add "ripple_sim_replacement_decisions" r.l1i.Stats.replacement_decisions;
  add "ripple_sim_hinted_fills" r.l1i.Stats.hinted_fills;
  add "ripple_sim_invalidate_hits" r.l1i.Stats.invalidate_hits;
  add "ripple_sim_invalidate_misses" r.l1i.Stats.invalidate_misses;
  add "ripple_sim_demotes" r.l1i.Stats.demotes;
  add "ripple_sim_fill_bypasses" r.l1i.Stats.fill_bypasses

(* Duel telemetry comes off the live policy, not the result record, so
   only the trace-driven paths that own a cache can emit it. *)
let observe_duel obs l1 =
  match Cache.duel l1 with
  | None -> ()
  | Some d ->
    let reg = Obs.Run.registry obs in
    register_obs reg;
    let add name v = Obs.Metric.add (Obs.Registry.counter reg name) v in
    add "ripple_duel_leader_a_misses" (Ripple_cache.Dueling.a_misses d);
    add "ripple_duel_leader_b_misses" (Ripple_cache.Dueling.b_misses d);
    add "ripple_duel_flips" (Ripple_cache.Dueling.flips d);
    Obs.Metric.set
      (Obs.Registry.gauge reg "ripple_duel_psel")
      (Float.of_int (Ripple_cache.Dueling.psel d))

let prefetcher_none _program = Prefetcher.none

let prefetcher_nlp ?(config = Config.default) _program =
  Nlp.create ~degree:config.Config.nlp_degree ()

let prefetcher_fdip ?(config = Config.default) program =
  Fdip.create ~ftq_depth:config.Config.ftq_depth ~program ()

(* Precomputed per-block expansion so the hot loop allocates nothing. *)
let block_lines program =
  Array.map
    (fun b -> Array.of_list (Basic_block.lines b))
    (Program.blocks program)

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
    instructions;
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
    ?(on_hint = fun ~at:_ _ ~resident:_ -> ()) ?sampling ~program ~(trace : Trace.t) ~policy
    ~prefetcher () =
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
      issue_all ~at (pf.Prefetcher.on_demand ~line:bl.(i) ~missed)
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
  match sampling with
  | None ->
    (* Periodic IPC/MPKI samples in *virtual* time (the trace index), so
       the series is a pure function of the run — identical at any pool
       size.  At most ~16 samples per run; the per-block cost without a
       sampler is one match. *)
    let sampler =
      match obs with
      | None -> None
      | Some obs ->
        let reg = Obs.Run.registry obs in
        register_obs reg;
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
      observe_result o result;
      observe_duel o l1
    | None -> ());
    (result, None)
  | Some (sampling : Sampling.t) ->
    let spans = Sampling.select ~warmup ~n sampling in
    (* Warm phase, then checkpoint: cache + hierarchy + prefetcher +
       in-flight prefetches, restored before every window. *)
    for at = 0 to min warmup n - 1 do
      step at
    done;
    reset_counters ();
    let restore =
      let restore_l1 = Cache.save l1 in
      let restore_hierarchy = Hierarchy.save hierarchy in
      let restore_pf = pf.Prefetcher.save () in
      let in_flight' = Array.copy in_flight in
      fun () ->
        restore_l1 ();
        restore_hierarchy ();
        restore_pf ();
        Array.blit in_flight' 0 in_flight 0 slots
    in
    let total_stats = Stats.create () in
    let t_instr = ref 0 and t_hint = ref 0 and t_miss = ref 0 in
    let t_l2 = ref 0 and t_l3 = ref 0 and t_mem = ref 0 in
    Array.iter
      (fun (w_start, w_end) ->
        restore ();
        let snap = Stats.copy (Cache.stats l1) in
        let s_instr = !instructions and s_hint = !hint_instructions in
        let s_miss = !miss_cycles in
        let s_l2 = !l2_served and s_l3 = !l3_served and s_mem = !mem_served in
        for at = w_start to w_end - 1 do
          step at
        done;
        t_instr := !t_instr + !instructions - s_instr;
        t_hint := !t_hint + !hint_instructions - s_hint;
        t_miss := !t_miss + !miss_cycles - s_miss;
        t_l2 := !t_l2 + !l2_served - s_l2;
        t_l3 := !t_l3 + !l3_served - s_l3;
        t_mem := !t_mem + !mem_served - s_mem;
        Stats.accumulate_delta ~into:total_stats ~before:snap ~after:(Cache.stats l1))
      spans;
    let result =
      finish ~config ~instructions:!t_instr ~hint_instructions:!t_hint
        ~miss_cycles:(Float.of_int !t_miss) ~l1i:total_stats ~l2_served:!t_l2
        ~l3_served:!t_l3 ~mem_served:!t_mem
    in
    (match obs with
    | Some o ->
      observe_result o result;
      observe_duel o l1
    | None -> ());
    (result, Some (Sampling.report_of_spans ~warmup ~n spans))

let run ?config ?warmup ?on_hint ~program ~trace ~policy ~prefetcher () =
  fst
    (run_trace ?config ?warmup ?on_hint ~program ~trace:(Trace.Blocks trace) ~policy
       ~prefetcher ())

let instructions_from_trace ~program ~(trace : Trace.t) ~warmup =
  let per_block = Array.map Basic_block.total_instrs (Program.blocks program) in
  let total = ref 0 in
  for i = warmup to Trace.length trace - 1 do
    total := !total + per_block.(Trace.get trace i)
  done;
  !total

let instructions_from ~program ~trace ~warmup =
  instructions_from_trace ~program ~trace:(Trace.Blocks trace) ~warmup

let ideal_cache ?(config = Config.default) ?(warmup = 0) ~program ~trace () =
  let instructions = instructions_from ~program ~trace ~warmup in
  finish ~config ~instructions ~hint_instructions:0 ~miss_cycles:0.0 ~l1i:(Stats.create ())
    ~l2_served:0 ~l3_served:0 ~mem_served:0

let record_stream_indexed_trace ?(config = Config.default) ?backing ~program
    ~(trace : Trace.t) ~prefetcher () =
  let l1 = Cache.create ~geometry:config.Config.l1i ~policy:Lru.make () in
  let pf = prefetcher program in
  let lines = block_lines program in
  let blocks = Program.blocks program in
  let builder = Access_stream.Builder.create ?backing () in
  let pos = Int_stream.Builder.create ?backing () in
  let emit (acc : Access.packed) ~at =
    Access_stream.Builder.add builder acc;
    Int_stream.Builder.add pos at
  in
  let delay = max 0 config.Config.prefetch_latency_blocks in
  let slots = delay + 1 in
  let in_flight = Array.make slots [] in
  let rec complete_all ~at = function
    | [] -> ()
    | (acc : Access.packed) :: rest ->
      complete_all ~at rest;
      emit acc ~at;
      ignore (Cache.access_packed l1 acc)
  in
  let rec issue_all ~at = function
    | [] -> ()
    | (acc : Access.packed) :: rest ->
      let slot = (at + delay) mod slots in
      in_flight.(slot) <- acc :: in_flight.(slot);
      issue_all ~at rest
  in
  let n = Trace.length trace in
  for at = 0 to n - 1 do
    let id = Trace.get trace at in
    let slot = at mod slots in
    complete_all ~at in_flight.(slot);
    in_flight.(slot) <- [];
    let b = blocks.(id) in
    issue_all ~at (pf.Prefetcher.on_block b);
    let bl = lines.(id) in
    for i = 0 to Array.length bl - 1 do
      let acc = Access.pack_demand ~line:bl.(i) ~block:id in
      emit acc ~at;
      let missed = Cache.access_packed l1 acc = Cache.Miss in
      issue_all ~at (pf.Prefetcher.on_demand ~line:bl.(i) ~missed)
    done
  done;
  (Access_stream.Builder.finish builder, Int_stream.Builder.finish pos)

let record_stream_indexed ?config ~program ~trace ~prefetcher () =
  let stream, pos =
    record_stream_indexed_trace ?config ~program ~trace:(Trace.Blocks trace) ~prefetcher ()
  in
  (stream, Int_stream.to_array pos)

let record_stream ?config ~program ~trace ~prefetcher () =
  fst (record_stream_indexed ?config ~program ~trace ~prefetcher ())

(* The L2/L3 side of an oracle run: [fill ~index acc] drives the
   hierarchy with one L1i fill, in stream order, and charges the
   penalty of a demand fill in the measured region; [result res]
   assembles the timing result from the Belady counters and the
   charges so far. *)
let oracle_charge ~config ~instructions ~count_from =
  let hierarchy = Hierarchy.create config in
  let miss_cycles = ref 0 in
  let l2_served = ref 0 and l3_served = ref 0 and mem_served = ref 0 in
  let fill ~index (acc : Access.packed) =
    let served = Hierarchy.fetch hierarchy (Access.packed_line acc) in
    if Access.packed_is_demand acc && index >= count_from then begin
      (match served with
      | Hierarchy.L2 -> incr l2_served
      | Hierarchy.L3 -> incr l3_served
      | Hierarchy.Memory -> incr mem_served);
      miss_cycles := !miss_cycles + Hierarchy.penalty config served
    end
  in
  let result (res : Belady.result) =
    let stats = Stats.create () in
    stats.Stats.demand_accesses <- res.Belady.demand_accesses;
    stats.Stats.demand_misses <- res.Belady.demand_misses;
    stats.Stats.demand_misses_cold <- res.Belady.demand_misses_cold;
    stats.Stats.prefetch_accesses <- res.Belady.prefetch_accesses;
    stats.Stats.prefetch_fills <- res.Belady.prefetch_fills;
    stats.Stats.evictions <- res.Belady.n_evictions;
    stats.Stats.replacement_decisions <- res.Belady.n_evictions;
    finish ~config ~instructions ~hint_instructions:0 ~miss_cycles:(Float.of_int !miss_cycles)
      ~l1i:stats ~l2_served:!l2_served ~l3_served:!l3_served ~mem_served:!mem_served
  in
  (fill, result)

let stream_count_from ~stream_pos ~warmup =
  (* First stream index belonging to the measured region. *)
  let n = Array.length stream_pos in
  let rec find i = if i >= n then n else if stream_pos.(i) >= warmup then i else find (i + 1) in
  if warmup = 0 then 0 else find 0

let oracle ?(config = Config.default) ?(warmup = 0) ?stream ?replay ~mode ~program ~trace
    ~prefetcher () =
  let stream, stream_pos =
    match stream with
    | Some s -> s
    | None -> record_stream_indexed ~config ~program ~trace ~prefetcher ()
  in
  let count_from = stream_count_from ~stream_pos ~warmup in
  let instructions = instructions_from ~program ~trace ~warmup in
  let fill, result = oracle_charge ~config ~instructions ~count_from in
  match replay with
  | Some (res : Belady.result) ->
    (* A precomputed Belady replay: its recorded fill sequence drives
       the hierarchy as the inline [on_fill] would have,
       byte-identically. *)
    Array.iter (fun index -> fill ~index (Access_stream.get stream index)) res.Belady.fills;
    result res
  | None ->
    (* The timing replay only needs counters and the fill callback — not
       the boxed eviction records, which would otherwise be the last
       O(n)-in-the-heap structure on the paper-scale oracle path. *)
    let res =
      Belady.simulate ~record_evictions:false ~on_fill:fill ~count_from config.Config.l1i ~mode
        stream
    in
    result res
