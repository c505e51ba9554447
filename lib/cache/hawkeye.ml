let predictor_entries = 2048
let counter_max = 7
let max_hits = 7 (* saturation of the EHC per-line hit counters *)
let friendly_threshold = 4
let sampler_associativity = 64 (* history depth per sampled set: 8x ways *)
let rrpv_max = 7

let mix x =
  let x = x * 0x9E3779B1 in
  let x = x lxor (x lsr 16) in
  let x = x * 0xC2B2AE35 in
  x lxor (x lsr 13)

(* Diagnostic: how often the predictor says "friendly".  Module-level,
   deliberately not part of a policy's checkpoint. *)
let friendly_lookups = ref 0
let total_lookups = ref 0

let stats_friendly_fraction () =
  if !total_lookups = 0 then 0.0
  else Float.of_int !friendly_lookups /. Float.of_int !total_lookups

(* One sampled set's OPTgen state: a bounded access history plus an
   occupancy vector over the same time window. *)
type sampler = {
  lines : int array; (* line per entry, -1 free *)
  pcs : int array;
  times : int array;
  clock : int ref; (* per-set access count, the OPTgen time quanta *)
  occupancy : int array; (* ring over the last [sampler_associativity] quanta *)
}

let ehc_entries = 2048

let make ~ehc ~sets ~ways =
  friendly_lookups := 0;
  total_lookups := 0;
  let st = Policy.State.create () in
  let predictor = Policy.State.array st predictor_entries friendly_threshold in
  let rrpv = Policy.State.array st (sets * ways) rrpv_max in
  let last_pc = Policy.State.array st (sets * ways) 0 in
  (* EHC refinement (Vakil-Ghahani et al. 2018): count hits per resident
     line, learn a per-PC expected hit count on eviction, and break
     highest-RRPV victim ties towards the line with the fewest expected
     remaining hits.  A set duel arbitrates plain vs. refined victim
     selection; with every tie equal it degenerates to plain Hawkeye. *)
  let hits = Policy.State.array st (sets * ways) 0 in
  let ehc_table = Policy.State.array st ehc_entries 0 in
  let ehc_duel = if ehc then Some (Dueling.make ~sets) else None in
  Option.iter (fun d -> Policy.State.custom st (fun () -> Dueling.save d)) ehc_duel;
  let ehc_index pc = mix pc land (ehc_entries - 1) in
  let sample_every = 4 in
  (* One sampler per set with [set mod sample_every = 1]. *)
  let samplers =
    Array.init ((sets + sample_every - 2) / sample_every) (fun _ ->
        {
          lines = Policy.State.array st sampler_associativity (-1);
          pcs = Policy.State.array st sampler_associativity 0;
          times = Policy.State.array st sampler_associativity 0;
          clock = Policy.State.ref st 0;
          occupancy = Policy.State.array st sampler_associativity 0;
        })
  in
  let sampler_of set = if set mod sample_every = 1 then Some samplers.(set / sample_every) else None in
  let predictor_index pc = mix pc land (predictor_entries - 1) in
  let predict_friendly pc =
    incr total_lookups;
    let friendly = predictor.(predictor_index pc) >= friendly_threshold in
    if friendly then incr friendly_lookups;
    friendly
  in
  let train pc ~friendly =
    let i = predictor_index pc in
    predictor.(i) <-
      (if friendly then min counter_max (predictor.(i) + 1) else max 0 (predictor.(i) - 1))
  in
  (* OPTgen: decide whether Demand-MIN would have kept [line] across its
     last usage interval, and train the PC that opened the interval
     accordingly. *)
  let optgen_access sampler (acc : Access.packed) =
    let now = !(sampler.clock) in
    sampler.clock := now + 1;
    sampler.occupancy.(now mod sampler_associativity) <- 0;
    let line = Access.packed_line acc in
    let found = ref (-1) in
    for i = 0 to sampler_associativity - 1 do
      if sampler.lines.(i) = line then found := i
    done;
    (if !found >= 0 then begin
       let i = !found in
       let t_prev = sampler.times.(i) in
       if now - t_prev < sampler_associativity then begin
         if Access.packed_is_prefetch acc then
           (* Demand-MIN: an interval closed by a prefetch need not be
              cached — the prefetch re-fetches the line for free. *)
           train sampler.pcs.(i) ~friendly:false
         else begin
           let fits = ref true in
           for q = t_prev to now - 1 do
             if sampler.occupancy.(q mod sampler_associativity) >= ways then fits := false
           done;
           if !fits then begin
             for q = t_prev to now - 1 do
               let slot = q mod sampler_associativity in
               sampler.occupancy.(slot) <- sampler.occupancy.(slot) + 1
             done;
             train sampler.pcs.(i) ~friendly:true
           end
           else train sampler.pcs.(i) ~friendly:false
         end
       end
     end
     else begin
       (* Find a free or oldest entry to (re)use. *)
       let slot = ref 0 and oldest = ref max_int in
       for i = 0 to sampler_associativity - 1 do
         if sampler.lines.(i) = -1 then begin
           if !oldest > -1 then begin
             oldest := -1;
             slot := i
           end
         end
         else if !oldest <> -1 && sampler.times.(i) < !oldest then begin
           oldest := sampler.times.(i);
           slot := i
         end
       done;
       found := !slot
     end);
    let i = !found in
    sampler.lines.(i) <- line;
    sampler.pcs.(i) <- Access.packed_pc acc;
    sampler.times.(i) <- now
  in
  let place ~set ~way (acc : Access.packed) =
    let slot = (set * ways) + way in
    let pc = Access.packed_pc acc in
    last_pc.(slot) <- pc;
    if predict_friendly pc then begin
      (* Friendly: most recent, and age the other friendly lines. *)
      for w = 0 to ways - 1 do
        let s = (set * ways) + w in
        if w <> way && rrpv.(s) < rrpv_max - 1 then rrpv.(s) <- rrpv.(s) + 1
      done;
      rrpv.(slot) <- 0
    end
    else rrpv.(slot) <- rrpv_max
  in
  let observe ~set (acc : Access.packed) =
    match sampler_of set with Some s -> optgen_access s acc | None -> ()
  in
  let on_hit ~set ~way acc =
    let slot = (set * ways) + way in
    hits.(slot) <- min max_hits (hits.(slot) + 1);
    observe ~set acc;
    place ~set ~way acc
  in
  let on_fill ~set ~way acc =
    (match ehc_duel with Some d -> Dueling.train_miss d ~set | None -> ());
    hits.((set * ways) + way) <- 0;
    observe ~set acc;
    place ~set ~way acc
  in
  let plain_victim ~set =
    let best = ref 0 and best_rrpv = ref (-1) in
    for way = 0 to ways - 1 do
      let r = rrpv.((set * ways) + way) in
      if r > !best_rrpv then begin
        best := way;
        best_rrpv := r
      end
    done;
    !best
  in
  (* Among the ways tied at the highest RRPV, pick the fewest expected
     remaining hits (EHC[pc] - hits so far); ties resolve to the lowest
     way, i.e. plain Hawkeye's choice. *)
  let ehc_victim ~set =
    let best_rrpv = ref (-1) in
    for way = 0 to ways - 1 do
      let r = rrpv.((set * ways) + way) in
      if r > !best_rrpv then best_rrpv := r
    done;
    let best = ref (-1) and best_remaining = ref max_int in
    for way = 0 to ways - 1 do
      let slot = (set * ways) + way in
      if rrpv.(slot) = !best_rrpv then begin
        let remaining = max 0 (ehc_table.(ehc_index last_pc.(slot)) - hits.(slot)) in
        if remaining < !best_remaining then begin
          best := way;
          best_remaining := remaining
        end
      end
    done;
    !best
  in
  let victim ~set =
    match ehc_duel with
    | Some d when Dueling.selects_b d ~set -> ehc_victim ~set
    | Some _ | None -> plain_victim ~set
  in
  let on_eviction ~set ~way ~line:_ =
    let slot = (set * ways) + way in
    (* Learn the PC's expected hit count as a rounding running average
       of the counts its lines actually achieved. *)
    (if ehc then
       let i = ehc_index last_pc.(slot) in
       ehc_table.(i) <- (ehc_table.(i) + hits.(slot) + 1) lsr 1);
    (* Evicting a still-friendly line means the prediction
       over-committed: detrain its source.  Only sampled sets train, so
       positive (OPTgen) and negative (eviction) evidence stay in
       balance. *)
    if set mod sample_every = 1 && rrpv.(slot) < rrpv_max then
      train last_pc.(slot) ~friendly:false
  in
  (* Table I accounting: 3 KiB predictor, 1 KiB sampler (~200 entries),
     1 KiB occupancy vectors, plus 3-bit RRIP counters per line. *)
  let storage_bits =
    (3 * 1024 * 8) (* predictor *)
    + (200 * 40) (* sampler entries *)
    + (1024 * 8) (* occupancy vectors *)
    + (sets * ways * 3) (* RRIP counters: 192 B *)
    + (match ehc_duel with
      | Some d -> (ehc_entries * 3) + (sets * ways * 3) + Dueling.storage_bits d
      | None -> 0)
  in
  {
    Policy.name = (if ehc then "ehc-hawkeye" else "harmony");
    on_hit;
    on_fill;
    fill_decision = Policy.nop_fill_decision;
    may_bypass = false;
    victim;
    on_eviction;
    on_invalidate = Policy.nop_way;
    demote = (fun ~set ~way -> rrpv.((set * ways) + way) <- rrpv_max);
    save = Policy.State.save st;
    storage_bits;
    duel = ehc_duel;
  }
