(* Reference for Cue_block.analyze_report: the two-pass selection as it
   was before candidates were recorded once.  Both passes walk every
   eviction window over the stream, dedupe through a [Hashtbl] reset
   per window, and key a global [Hashtbl] on the packed (victim, block)
   pair.  The [chosen] table and its fold are the same as the module's,
   so decision lists compare in order. *)

module Access = Ripple_cache.Access
module Access_stream = Ripple_cache.Access_stream
module Eviction_window = Ripple_core.Eviction_window
module Cue_block = Ripple_core.Cue_block

(* Visit a window's candidate cue blocks: each distinct executed
   (demand) block, scanning from both ends of the window — the blocks
   executed right after the victim's last use (its own continuation,
   typically the strongest predictors) and the blocks leading up to the
   eviction.  Bounded by the scan/step limits; [seen] is caller-provided
   scratch (cleared here). *)
let walk_window ~scan_limit ~step_limit (stream : Access_stream.t) (w : Eviction_window.t)
    ~seen f =
  Hashtbl.reset seen;
  let visit (acc : Access.packed) =
    if Access.packed_is_demand acc then begin
      let block = Access.packed_block acc in
      if not (Hashtbl.mem seen block) then begin
        Hashtbl.add seen block ();
        f block
      end
    end
  in
  let half_scan = max 1 (scan_limit / 2) and half_step = max 1 (step_limit / 2) in
  let start = w.Eviction_window.start and stop = w.Eviction_window.stop in
  (* Forward from just after the last use. *)
  let steps = ref 0 in
  let i = ref (start + 1) in
  while !i <= stop && !steps < half_step && Hashtbl.length seen < half_scan do
    visit (Access_stream.get stream !i);
    incr steps;
    incr i
  done;
  (* Backward from the eviction trigger, stopping where the forward scan
     ended. *)
  let fwd_end = !i in
  steps := 0;
  let j = ref stop in
  while !j >= fwd_end && !steps < half_step && Hashtbl.length seen < scan_limit do
    visit (Access_stream.get stream !j);
    incr steps;
    decr j
  done

(* (victim line, block) -> number of distinct windows containing the
   block.  Lines fit well under 2^40 and block ids under 2^22, so the
   pair packs into one int key. *)
let pack ~victim ~block = (victim lsl 22) lor block

let analyze_report ?(scan_limit = Cue_block.default_scan_limit)
    ?(step_limit = Cue_block.default_step_limit) ?(min_support = Cue_block.default_min_support)
    ~stream ~windows ~exec_counts ~threshold () =
  let window_counts = Hashtbl.create (4 * Array.length windows) in
  let seen = Hashtbl.create 64 in
  (* Pass 1: per-pair window membership counts. *)
  Array.iter
    (fun (w : Eviction_window.t) ->
      walk_window ~scan_limit ~step_limit stream w ~seen (fun block ->
          let key = pack ~victim:w.Eviction_window.victim ~block in
          match Hashtbl.find_opt window_counts key with
          | Some n -> Hashtbl.replace window_counts key (n + 1)
          | None -> Hashtbl.add window_counts key 1))
    windows;
  (* Pass 2: pick each window's best candidate and keep it when it clears
     the threshold; windows that do not land in a decision are counted by
     the reason they fell out. *)
  let chosen = Hashtbl.create 4096 in
  let no_candidate = ref 0 and below_support = ref 0 and below_threshold = ref 0 in
  let selected = ref 0 in
  Array.iter
    (fun (w : Eviction_window.t) ->
      let victim = w.Eviction_window.victim in
      let best_block = ref (-1) and best_p = ref (-1.0) in
      walk_window ~scan_limit ~step_limit stream w ~seen (fun block ->
          let execs = exec_counts.(block) in
          if execs > 0 then begin
            let count = try Hashtbl.find window_counts (pack ~victim ~block) with Not_found -> 0 in
            let p = Float.of_int count /. Float.of_int execs in
            if p > !best_p then begin
              best_p := p;
              best_block := block
            end
          end);
      if !best_block < 0 then incr no_candidate
      else if
        (try Hashtbl.find window_counts (pack ~victim ~block:!best_block) with Not_found -> 0)
        < min_support
      then incr below_support
      else if !best_p < threshold then incr below_threshold
      else begin
        incr selected;
        let key = pack ~victim ~block:!best_block in
        match Hashtbl.find_opt chosen key with
        | Some (block, victim, p, n) -> Hashtbl.replace chosen key (block, victim, p, n + 1)
        | None -> Hashtbl.add chosen key (!best_block, victim, !best_p, 1)
      end)
    windows;
  let decisions =
    Hashtbl.fold
      (fun _ (cue_block, victim, probability, windows) acc ->
        { Cue_block.cue_block; victim; probability; windows } :: acc)
      chosen []
  in
  ( decisions,
    {
      Cue_block.windows_total = Array.length windows;
      no_candidate = !no_candidate;
      below_support = !below_support;
      below_threshold = !below_threshold;
      selected = !selected;
    } )
