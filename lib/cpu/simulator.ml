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

(* ----------------------------- front end ----------------------------- *)

(* Trace -> prefetcher -> the L1I access sequence.  Per block, [fetch]
   completes the prefetches due, shows the block to the prefetcher and
   issues the block's demand fetches, handing each L1I access to [emit]
   in order.  Nothing here reads the L1I the policy manages, so the
   sequence is a function of the trace, the program and the prefetcher
   alone: every replacement policy sees the same one.  A miss-trained
   prefetcher (RDIP) learns from an LRU reference L1I kept here. *)
let front_end ~(config : Config.t) ~program ~prefetcher ~(emit : Access.packed -> unit) =
  let pf : Prefetcher.t = prefetcher program in
  let lines = Program.line_table program in
  let blocks = Program.blocks program in
  let reference =
    match pf.Prefetcher.on_miss with
    | None -> None
    | Some on_miss -> Some (Cache.create ~geometry:config.Config.l1i ~policy:Lru.make (), on_miss)
  in
  let complete (acc : Access.packed) =
    emit acc;
    match reference with Some (l1, _) -> ignore (Cache.access_packed l1 acc) | None -> ()
  in
  (* Issued accesses arrive consed (newest first); completing them in
     issue order without the [List.rev] copy means recursing to the tail
     first.  In-flight lists are bounded by the FTQ/issue width, so the
     recursion depth is small. *)
  let rec complete_all = function
    | [] -> ()
    | acc :: rest ->
      complete_all rest;
      complete acc
  in
  (* Prefetches land [prefetch_latency_blocks] blocks after issue (the
     L2 round trip); slot [at mod slots] holds what completes as block
     [at] is fetched. *)
  let delay = max 0 config.Config.prefetch_latency_blocks in
  let slots = delay + 1 in
  let in_flight = Array.make slots [] in
  let rec issue_all ~at = function
    | [] -> ()
    | (acc : Access.packed) :: rest ->
      let slot = (at + delay) mod slots in
      in_flight.(slot) <- acc :: in_flight.(slot);
      issue_all ~at rest
  in
  let demand ~block line =
    let acc = Access.pack_demand ~line ~block in
    emit acc;
    match reference with
    | Some (l1, on_miss) -> if Cache.access_packed l1 acc = Cache.Miss then on_miss line
    | None -> ()
  in
  fun at id ->
    let slot = at mod slots in
    complete_all in_flight.(slot);
    in_flight.(slot) <- [];
    issue_all ~at (pf.Prefetcher.on_block blocks.(id));
    let bl = lines.(id) in
    for i = 0 to Array.length bl - 1 do
      demand ~block:id bl.(i);
      issue_all ~at (pf.Prefetcher.on_demand ~line:bl.(i))
    done

(* ----------------------------- back end ------------------------------ *)

(* The L1I under the policy and the L2/L3 hierarchy behind it, charging
   each access of the sequence; [retire] runs a block's hints after its
   last access and counts its instructions.  Penalties are integers;
   accumulating them in an int converts once at the end (bit-identical
   to float accumulation: every partial sum is far below 2^53). *)
type back = {
  config : Config.t;
  l1 : Cache.t;
  hierarchy : Hierarchy.t;
  blocks : Basic_block.t array;
  on_hint : at:int -> Basic_block.hint -> resident:bool -> unit;
  mutable instructions : int;
  mutable hint_instructions : int;
  mutable miss_cycles : int;
  mutable l2_served : int;
  mutable l3_served : int;
  mutable mem_served : int;
}

let back_end ~(config : Config.t) ~program ~policy ~on_hint =
  {
    config;
    l1 = Cache.create ~geometry:config.Config.l1i ~policy ();
    hierarchy = Hierarchy.create config;
    blocks = Program.blocks program;
    on_hint;
    instructions = 0;
    hint_instructions = 0;
    miss_cycles = 0;
    l2_served = 0;
    l3_served = 0;
    mem_served = 0;
  }

let access b (acc : Access.packed) =
  match Cache.access_packed b.l1 acc with
  | Cache.Hit -> ()
  | Cache.Miss ->
    let served = Hierarchy.fetch b.hierarchy (Access.packed_line acc) in
    if Access.packed_is_demand acc then begin
      (match served with
      | Hierarchy.L2 -> b.l2_served <- b.l2_served + 1
      | Hierarchy.L3 -> b.l3_served <- b.l3_served + 1
      | Hierarchy.Memory -> b.mem_served <- b.mem_served + 1);
      b.miss_cycles <- b.miss_cycles + Hierarchy.penalty b.config served
    end

let retire b ~at id =
  let blk = b.blocks.(id) in
  let hints = blk.Basic_block.hints in
  for i = 0 to Array.length hints - 1 do
    let hint = hints.(i) in
    b.on_hint ~at hint ~resident:(Cache.contains b.l1 (Basic_block.hint_line hint));
    (match hint with
    | Basic_block.Invalidate line -> Cache.invalidate b.l1 line
    | Basic_block.Demote line -> Cache.demote b.l1 line);
    b.hint_instructions <- b.hint_instructions + 1
  done;
  b.instructions <- b.instructions + Basic_block.total_instrs blk

let reset b =
  Stats.reset (Cache.stats b.l1);
  b.miss_cycles <- 0;
  b.instructions <- 0;
  b.hint_instructions <- 0;
  b.l2_served <- 0;
  b.l3_served <- 0;
  b.mem_served <- 0

let result_of b =
  finish ~config:b.config ~instructions:b.instructions ~hint_instructions:b.hint_instructions
    ~miss_cycles:(Float.of_int b.miss_cycles) ~l1i:(Cache.stats b.l1) ~l2_served:b.l2_served
    ~l3_served:b.l3_served ~mem_served:b.mem_served

let observe obs b result =
  match obs with
  | Some o ->
    observe_result o result;
    observe_duel o b.l1
  | None -> ()

(* Periodic IPC/MPKI samples in *virtual* time (the trace index), so the
   series is a pure function of the run — identical at any pool size.
   At most ~16 samples per run. *)
let sampler ~obs ~n b =
  match obs with
  | None -> fun _ -> ()
  | Some obs ->
    let reg = Obs.Run.registry obs in
    register_obs reg;
    let ipc_series = Obs.Registry.series reg "ripple_sim_ipc" in
    let mpki_series = Obs.Registry.series reg "ripple_sim_mpki" in
    let every = max 1 (n / 16) in
    fun at ->
      if (at + 1) mod every = 0 && b.instructions > b.hint_instructions then begin
        let r = result_of b in
        Obs.Metric.sample ipc_series ~at r.ipc;
        Obs.Metric.sample mpki_series ~at r.mpki
      end

(* Per trace position, [accesses at id] feeds block [at]'s L1I accesses
   to the back end, then its hints retire.  Steady state: the caches and
   predictors warm up, and the counters zero at the warm-up boundary. *)
let drive b ~(trace : Trace.t) ~warmup ~sample accesses =
  for at = 0 to Trace.length trace - 1 do
    if at = warmup && warmup > 0 then reset b;
    let id = Trace.get trace at in
    accesses at id;
    retire b ~at id;
    sample at
  done

(* ---------------------------- recordings ----------------------------- *)

module Recording = struct
  type t = { stream : Access_stream.t; offsets : Int_stream.t }

  let stream t = t.stream
  let blocks t = Int_stream.length t.offsets - 1

  let count_from t ~warmup =
    if warmup <= 0 then 0 else Int_stream.get t.offsets (min warmup (blocks t))

  (* The block whose accesses hold entry [i]: the last position whose
     offset is [<= i] (blocks without accesses share their successor's
     offset). *)
  let position t i =
    if i < 0 || i >= Access_stream.length t.stream then
      invalid_arg "Simulator.Recording.position: index out of bounds";
    let rec search lo hi =
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if Int_stream.unsafe_get t.offsets mid <= i then search mid hi else search lo mid
      end
    in
    search 0 (blocks t)

  let close t =
    Access_stream.close t.stream;
    Int_stream.close t.offsets
end

let record ?(config = Config.default) ?backing ~program ~(trace : Trace.t) ~prefetcher () =
  let builder = Access_stream.Builder.create ?backing () in
  let offsets = Int_stream.Builder.create ?backing () in
  let fetch = front_end ~config ~program ~prefetcher ~emit:(Access_stream.Builder.add builder) in
  match
    for at = 0 to Trace.length trace - 1 do
      Int_stream.Builder.add offsets (Access_stream.Builder.length builder);
      fetch at (Trace.get trace at)
    done;
    Int_stream.Builder.add offsets (Access_stream.Builder.length builder)
  with
  | () ->
    let stream = Access_stream.Builder.finish builder in
    { Recording.stream; offsets = Int_stream.Builder.finish offsets }
  | exception e ->
    Access_stream.Builder.abort builder;
    Int_stream.Builder.abort offsets;
    raise e

(* ------------------------------- runs -------------------------------- *)

let no_hint ~at:_ _ ~resident:_ = ()

let replay ?(config = Config.default) ?(warmup = 0) ?obs ?(on_hint = no_hint) ~program
    ~(trace : Trace.t) ~policy (recording : Recording.t) =
  let n = Trace.length trace in
  if Recording.blocks recording <> n then
    invalid_arg "Simulator.replay: the recording is of a different trace length";
  let b = back_end ~config ~program ~policy ~on_hint in
  let stream = Access_stream.raw recording.Recording.stream in
  let offsets = recording.Recording.offsets in
  drive b ~trace ~warmup ~sample:(sampler ~obs ~n b) (fun at _ ->
      for i = Int_stream.unsafe_get offsets at to Int_stream.unsafe_get offsets (at + 1) - 1 do
        access b (Int_stream.unsafe_get stream i)
      done);
  let result = result_of b in
  observe obs b result;
  result

let run_trace ?(config = Config.default) ?(warmup = 0) ?obs ?(on_hint = no_hint) ~program
    ~(trace : Trace.t) ~policy ~prefetcher () =
  let b = back_end ~config ~program ~policy ~on_hint in
  let fetch = front_end ~config ~program ~prefetcher ~emit:(access b) in
  drive b ~trace ~warmup ~sample:(sampler ~obs ~n:(Trace.length trace) b) fetch;
  let result = result_of b in
  observe obs b result;
  (result, None)

let run ?config ?warmup ?on_hint ~program ~trace ~policy ~prefetcher () =
  fst
    (run_trace ?config ?warmup ?on_hint ~program ~trace:(Trace.Blocks trace) ~policy
       ~prefetcher ())

let instructions_from ~program ~trace ~warmup =
  let per_block = Array.map Basic_block.total_instrs (Program.blocks program) in
  let total = ref 0 in
  for i = warmup to Array.length trace - 1 do
    total := !total + per_block.(trace.(i))
  done;
  !total

let ideal_cache ?(config = Config.default) ?(warmup = 0) ~program ~trace () =
  let instructions = instructions_from ~program ~trace ~warmup in
  finish ~config ~instructions ~hint_instructions:0 ~miss_cycles:0.0 ~l1i:(Stats.create ())
    ~l2_served:0 ~l3_served:0 ~mem_served:0

(* Per-entry trace positions, the coordinate change Ripple's analysis
   and the oracle's warm-up boundary use: block [at] owns the entries
   between its offset and the next. *)
let record_stream_indexed_trace ?config ?backing ~program ~trace ~prefetcher () =
  let r = record ?config ?backing ~program ~trace ~prefetcher () in
  let pos = Int_stream.Builder.create ?backing () in
  for at = 0 to Recording.blocks r - 1 do
    for _ = Int_stream.get r.Recording.offsets at to Int_stream.get r.Recording.offsets (at + 1) - 1 do
      Int_stream.Builder.add pos at
    done
  done;
  Int_stream.close r.Recording.offsets;
  (r.Recording.stream, Int_stream.Builder.finish pos)

let record_stream_indexed ?config ~program ~trace ~prefetcher () =
  let stream, pos =
    record_stream_indexed_trace ?config ~program ~trace:(Trace.Blocks trace) ~prefetcher ()
  in
  (stream, Int_stream.to_array pos)

let record_stream ?config ~program ~trace ~prefetcher () =
  Recording.stream (record ?config ~program ~trace:(Trace.Blocks trace) ~prefetcher ())

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

let oracle_of ~config ~warmup ~count_from ?replay ~mode ~program ~trace stream =
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

let replay_oracle ?(config = Config.default) ?(warmup = 0) ~mode ~program ~trace recording =
  oracle_of ~config ~warmup
    ~count_from:(Recording.count_from recording ~warmup)
    ~mode ~program ~trace (Recording.stream recording)

let oracle ?(config = Config.default) ?(warmup = 0) ?stream ?replay ~mode ~program ~trace
    ~prefetcher () =
  match stream with
  | Some (stream, stream_pos) ->
    oracle_of ~config ~warmup ~count_from:(stream_count_from ~stream_pos ~warmup) ?replay ~mode
      ~program ~trace stream
  | None ->
    let recording = record ~config ~program ~trace:(Trace.Blocks trace) ~prefetcher () in
    oracle_of ~config ~warmup
      ~count_from:(Recording.count_from recording ~warmup)
      ?replay ~mode ~program ~trace (Recording.stream recording)
