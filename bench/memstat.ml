(* Peak-memory / allocation probe for the access-stream pipeline.

     dune exec bench/memstat.exe -- [n_instrs] [heap|mmap] [sample_windows]

   Measures, for one (application, prefetcher) configuration at the
   given trace length: words allocated, top-heap words and the process
   peak RSS (VmHWM) reached by (1) generating the block trace,
   (2) recording the front end's access stream, (3) the Belady
   Demand-MIN replay over it, and (4) a full Simulator run — the four
   hot paths of the pipeline — under either stream backing.  With
   [sample_windows > 0] the simulator pass also runs sampled from a
   checkpoint and reports the sampled-vs-full IPC/MPKI error, the
   artifact CI's large-trace smoke job archives.  Numbers feed
   EXPERIMENTS.md's peak-memory table; the out-of-core acceptance
   criteria are judged against them. *)

module W = Ripple_workloads
module Cache = Ripple_cache
module Cpu = Ripple_cpu
module Int_stream = Ripple_util.Int_stream

let words stat = stat.Gc.minor_words +. stat.Gc.major_words -. stat.Gc.promoted_words

(* Peak resident set of this process so far, in KiB — the watermark the
   out-of-core acceptance budget is asserted against.  0 where the
   kernel does not provide /proc/self/status. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec loop () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> loop ()
      | exception End_of_file -> 0
    in
    let kb = loop () in
    close_in ic;
    kb

let measure name f =
  Gc.compact ();
  let before = Gc.quick_stat () in
  let x = f () in
  let after = Gc.quick_stat () in
  Printf.printf "%-24s allocated_words=%14.0f top_heap_words=%10d live_words=%10d vm_hwm_kb=%8d\n%!"
    name
    (words after -. words before)
    after.Gc.top_heap_words
    (let s = Gc.quick_stat () in
     s.Gc.heap_words)
    (vm_hwm_kb ());
  x

let () =
  let n_instrs =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2_000_000
  in
  let backing =
    if Array.length Sys.argv > 2 then
      match Int_stream.backing_of_string Sys.argv.(2) with
      | Ok b -> b
      | Error msg -> failwith msg
    else Int_stream.Heap
  in
  let sample_windows = if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 0 in
  Printf.printf "memstat: n_instrs=%d backing=%s sample_windows=%d\n%!" n_instrs
    (Int_stream.backing_name backing)
    sample_windows;
  let model = W.Apps.kafka in
  let workload = W.Cfg_gen.generate model in
  let program = workload.W.Cfg_gen.program in
  let blocks =
    measure "trace (block ids)" (fun () ->
        W.Executor.run_stream ~backing workload ~input:W.Executor.eval_inputs.(0) ~n_instrs)
  in
  let n = Int_stream.length blocks in
  let warmup = n / 2 in
  Printf.printf "trace blocks: %d (spill: %b)\n%!" n (Int_stream.is_spill blocks);
  let trace = Cpu.Simulator.Trace.of_stream blocks in
  let recording =
    measure "record_stream" (fun () ->
        Cpu.Simulator.record ~backing ~program ~trace ~prefetcher:Cpu.Simulator.prefetcher_fdip ())
  in
  let stream = Cpu.Simulator.Recording.stream recording in
  Printf.printf "stream accesses: %d\n%!" (Cache.Access_stream.length stream);
  ignore
    (measure "belady demand-min" (fun () ->
         let tables = Cache.Belady.prepare ~backing stream in
         Fun.protect
           ~finally:(fun () -> Cache.Belady.close_tables tables)
           (fun () ->
             (* Counters only — the oracle timing path never keeps the
                boxed eviction records, so neither does the probe. *)
             Cache.Belady.simulate ~tables ~record_evictions:false Cache.Geometry.l1i
               ~mode:Cache.Belady.Demand_min stream)));
  Cpu.Simulator.Recording.close recording;
  let full =
    measure "simulator lru+fdip" (fun () ->
        fst
          (Cpu.Simulator.run_trace ~warmup ~program ~trace ~policy:Cache.Lru.make
             ~prefetcher:Cpu.Simulator.prefetcher_fdip ()))
  in
  Printf.printf "full ipc=%.6f mpki=%.4f\n%!" full.Cpu.Simulator.ipc full.Cpu.Simulator.mpki;
  if sample_windows > 0 then begin
    let sampling =
      Cpu.Simulator.Sampling.v ~windows:sample_windows
        ~window_blocks:(max 1 ((n - warmup) / (4 * sample_windows)))
        ()
    in
    let sampled, report =
      measure "simulator sampled" (fun () ->
          Cpu.Simulator.run_trace ~warmup ~sampling ~program ~trace ~policy:Cache.Lru.make
            ~prefetcher:Cpu.Simulator.prefetcher_fdip ())
    in
    let rel a b = if b = 0.0 then 0.0 else Float.abs (a -. b) /. b in
    let coverage =
      match report with Some r -> r.Cpu.Simulator.Sampling.coverage | None -> 1.0
    in
    Printf.printf "sampled ipc=%.6f mpki=%.4f coverage=%.4f\n%!" sampled.Cpu.Simulator.ipc
      sampled.Cpu.Simulator.mpki coverage;
    Printf.printf "ipc_rel_error=%.6f mpki_rel_error=%.6f\n%!"
      (rel sampled.Cpu.Simulator.ipc full.Cpu.Simulator.ipc)
      (rel sampled.Cpu.Simulator.mpki full.Cpu.Simulator.mpki)
  end;
  Cpu.Simulator.Trace.close trace;
  Printf.printf "peak vm_hwm_kb=%d\n%!" (vm_hwm_kb ())
