(* Table I charges LRU one bit per line. *)
let storage_bits ~sets ~ways = sets * ways

let make ~sets ~ways =
  (* Recency is a per-slot timestamp from a monotonically increasing
     counter; demotion uses a decreasing counter so demoted lines order
     below every genuine reference. *)
  let st = Policy.State.create () in
  let stamp = Policy.State.array st (sets * ways) 0 in
  let clock = Policy.State.ref st 0 in
  let demote_clock = Policy.State.ref st (-1) in
  let touch ~set ~way =
    incr clock;
    stamp.((set * ways) + way) <- !clock
  in
  let victim ~set =
    let best = ref 0 and best_stamp = ref max_int in
    for way = 0 to ways - 1 do
      let s = stamp.((set * ways) + way) in
      if s < !best_stamp then begin
        best := way;
        best_stamp := s
      end
    done;
    !best
  in
  {
    Policy.name = "lru";
    on_hit = (fun ~set ~way _ -> touch ~set ~way);
    on_fill = (fun ~set ~way _ -> touch ~set ~way);
    fill_decision = Policy.nop_fill_decision;
    may_bypass = false;
    victim;
    on_eviction = Policy.nop_evict;
    on_invalidate = Policy.nop_way;
    demote =
      (fun ~set ~way ->
        stamp.((set * ways) + way) <- !demote_clock;
        decr demote_clock);
    save = Policy.State.save st;
    storage_bits = storage_bits ~sets ~ways;
    duel = None;
  }
