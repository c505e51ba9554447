module Access = Ripple_cache.Access
module Access_stream = Ripple_cache.Access_stream

type decision = { cue_block : int; victim : int; probability : float; windows : int }

let default_scan_limit = 48
let default_step_limit = 4096
let default_min_support = 3

(* Record each window's candidate cue blocks once, in visit order:
   each distinct executed (demand) block, scanning from both ends of
   the window — the blocks executed right after the victim's last use
   (its own continuation, typically the strongest predictors) and the
   blocks leading up to the eviction.  Bounded by the scan/step limits.
   Window [w]'s candidates are [blocks.(offsets.(w)) ..
   blocks.(offsets.(w + 1) - 1)]; the per-window dedupe stamps
   [seen.(block)] with the window's number. *)
let record ~scan_limit ~step_limit (stream : Access_stream.t) windows ~n_blocks =
  let n_windows = Array.length windows in
  let offsets = Array.make (n_windows + 1) 0 in
  let blocks = ref (Array.make (max 64 (4 * n_windows)) 0) and len = ref 0 in
  let seen = Array.make n_blocks 0 in
  let half_scan = max 1 (scan_limit / 2) and half_step = max 1 (step_limit / 2) in
  Array.iteri
    (fun wi (w : Eviction_window.t) ->
      let stamp = wi + 1 and first = !len in
      let visit (acc : Access.packed) =
        if Access.packed_is_demand acc then begin
          let block = Access.packed_block acc in
          if seen.(block) <> stamp then begin
            seen.(block) <- stamp;
            if !len = Array.length !blocks then begin
              let grown = Array.make (2 * !len) 0 in
              Array.blit !blocks 0 grown 0 !len;
              blocks := grown
            end;
            !blocks.(!len) <- block;
            incr len
          end
        end
      in
      let start = w.Eviction_window.start and stop = w.Eviction_window.stop in
      (* Forward from just after the last use. *)
      let steps = ref 0 in
      let i = ref (start + 1) in
      while !i <= stop && !steps < half_step && !len - first < half_scan do
        visit (Access_stream.get stream !i);
        incr steps;
        incr i
      done;
      (* Backward from the eviction trigger, stopping where the forward
         scan ended. *)
      let fwd_end = !i in
      steps := 0;
      let j = ref stop in
      while !j >= fwd_end && !steps < half_step && !len - first < scan_limit do
        visit (Access_stream.get stream !j);
        incr steps;
        decr j
      done;
      offsets.(wi + 1) <- !len)
    windows;
  (!blocks, offsets)

(* (victim line, block) -> number of distinct windows containing the
   block.  Lines fit well under 2^40 and block ids under 2^22, so the
   pair packs into one non-negative int key, counted in an
   open-addressed table: linear probing from the key's top [bits] bits
   after a multiplicative hash, -1 marks a free slot, and the table
   doubles before it is half full. *)
let pack ~victim ~block = (victim lsl 22) lor block

type counts = {
  mutable bits : int;
  mutable keys : int array;
  mutable values : int array;
  mutable size : int;
}

let counts () = { bits = 10; keys = Array.make 1024 (-1); values = Array.make 1024 0; size = 0 }

let slot c key =
  let mask = Array.length c.keys - 1 in
  let i = ref ((key * 0x1E3779B97F4A7C15) lsr (Sys.int_size - c.bits)) in
  while c.keys.(!i) <> key && c.keys.(!i) <> -1 do
    i := (!i + 1) land mask
  done;
  !i

let count_of c key =
  let i = slot c key in
  if c.keys.(i) = key then c.values.(i) else 0

let incr_count c key =
  if 2 * (c.size + 1) > Array.length c.keys then begin
    let keys = c.keys and values = c.values in
    c.bits <- c.bits + 1;
    c.keys <- Array.make (2 * Array.length keys) (-1);
    c.values <- Array.make (2 * Array.length keys) 0;
    Array.iteri
      (fun i k ->
        if k <> -1 then begin
          let j = slot c k in
          c.keys.(j) <- k;
          c.values.(j) <- values.(i)
        end)
      keys
  end;
  let i = slot c key in
  if c.keys.(i) = key then c.values.(i) <- c.values.(i) + 1
  else begin
    c.keys.(i) <- key;
    c.values.(i) <- 1;
    c.size <- c.size + 1
  end

type drops = {
  windows_total : int;
  no_candidate : int;
  below_support : int;
  below_threshold : int;
  selected : int;
}

let analyze_report ?(scan_limit = default_scan_limit) ?(step_limit = default_step_limit)
    ?(min_support = default_min_support) ~stream ~windows ~exec_counts ~threshold () =
  let candidates, offsets =
    record ~scan_limit ~step_limit stream windows ~n_blocks:(Array.length exec_counts)
  in
  (* Pass 1: per-pair window membership counts. *)
  let window_counts = counts () in
  Array.iteri
    (fun wi (w : Eviction_window.t) ->
      for c = offsets.(wi) to offsets.(wi + 1) - 1 do
        incr_count window_counts (pack ~victim:w.Eviction_window.victim ~block:candidates.(c))
      done)
    windows;
  (* Pass 2: pick each window's best recorded candidate and keep it when
     it clears the threshold; windows that do not land in a decision are
     counted by the reason they fell out.  [chosen] is filled in window
     order and folded as a [Hashtbl]: its iteration order is the
     decision order, which the injector's stable per-block sort turns
     into hint order on probability ties. *)
  let chosen = Hashtbl.create 4096 in
  let no_candidate = ref 0 and below_support = ref 0 and below_threshold = ref 0 in
  let selected = ref 0 in
  Array.iteri
    (fun wi (w : Eviction_window.t) ->
      let victim = w.Eviction_window.victim in
      let best_block = ref (-1) and best_p = ref (-1.0) and best_count = ref 0 in
      for c = offsets.(wi) to offsets.(wi + 1) - 1 do
        let block = candidates.(c) in
        let execs = exec_counts.(block) in
        if execs > 0 then begin
          let count = count_of window_counts (pack ~victim ~block) in
          let p = Float.of_int count /. Float.of_int execs in
          if p > !best_p then begin
            best_p := p;
            best_block := block;
            best_count := count
          end
        end
      done;
      if !best_block < 0 then incr no_candidate
      else if !best_count < min_support then incr below_support
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
        { cue_block; victim; probability; windows } :: acc)
      chosen []
  in
  ( decisions,
    {
      windows_total = Array.length windows;
      no_candidate = !no_candidate;
      below_support = !below_support;
      below_threshold = !below_threshold;
      selected = !selected;
    } )

let analyze ?min_support ~stream ~windows ~exec_counts ~threshold () =
  fst (analyze_report ?min_support ~stream ~windows ~exec_counts ~threshold ())
