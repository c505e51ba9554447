let history_bits = 16
let table_entries = 1024
let n_tables = 3
let counter_max = 255 (* 8-bit counters, per Table I's 3 KiB accounting *)
let counter_init = 100
let dead_threshold = 106
let victim_buffer_size = 64

(* Cheap avalanche mix for signature and table index hashing. *)
let mix x =
  let x = x * 0x9E3779B1 in
  let x = x lxor (x lsr 15) in
  let x = x * 0x85EBCA77 in
  x lxor (x lsr 13)

let make ~sets ~ways =
  let history = ref 0 in
  let tables = Array.init n_tables (fun _ -> Array.make table_entries counter_init) in
  let signature = Array.make (sets * ways) 0 in
  let dead = Array.make (sets * ways) false in
  let stamp = Array.make (sets * ways) 0 in
  let clock = ref 0 in
  (* Ring buffer of recently evicted (line, signature) pairs used by the
     premature-eviction fix. *)
  let victims_line = Array.make victim_buffer_size (-1) in
  let victims_sig = Array.make victim_buffer_size 0 in
  let victims_head = ref 0 in
  let current_signature line = mix (line lxor (!history lsl 5)) land 0xFFFF in
  let table_index t s = mix (s + (t * 0x51ED)) land (table_entries - 1) in
  let predict_dead s =
    let sum = ref 0 in
    for t = 0 to n_tables - 1 do
      sum := !sum + tables.(t).(table_index t s)
    done;
    !sum / n_tables >= dead_threshold
  in
  let train s ~towards_dead ~amount =
    for t = 0 to n_tables - 1 do
      let i = table_index t s in
      let v = tables.(t).(i) in
      tables.(t).(i) <-
        (if towards_dead then min counter_max (v + amount) else max 0 (v - amount))
    done
  in
  let update_history line = history := (mix (!history lxor line)) land ((1 lsl history_bits) - 1) in
  let touch ~set ~way (acc : Access.packed) =
    let slot = (set * ways) + way in
    let line = Access.packed_line acc in
    let s = current_signature line in
    signature.(slot) <- s;
    dead.(slot) <- predict_dead s;
    incr clock;
    stamp.(slot) <- !clock;
    if Access.packed_is_demand acc then update_history line
  in
  let on_hit ~set ~way (acc : Access.packed) =
    (* A hit proves the previous signature of this slot was alive. *)
    train signature.((set * ways) + way) ~towards_dead:false ~amount:1;
    touch ~set ~way acc
  in
  let on_fill ~set ~way (acc : Access.packed) =
    if Access.packed_is_demand acc then begin
      (* Premature-eviction check: was this line evicted recently? *)
      let line = Access.packed_line acc in
      for i = 0 to victim_buffer_size - 1 do
        if victims_line.(i) = line then begin
          train victims_sig.(i) ~towards_dead:false ~amount:4;
          victims_line.(i) <- -1
        end
      done
    end;
    touch ~set ~way acc
  in
  let victim ~set =
    (* Prefer predicted-dead lines; LRU breaks ties and serves as
       fallback. *)
    let best = ref 0 and best_key = ref (max_int, max_int) in
    for way = 0 to ways - 1 do
      let slot = (set * ways) + way in
      let key = ((if dead.(slot) then 0 else 1), stamp.(slot)) in
      if key < !best_key then begin
        best := way;
        best_key := key
      end
    done;
    !best
  in
  let on_eviction ~set ~way ~line =
    let slot = (set * ways) + way in
    train signature.(slot) ~towards_dead:true ~amount:3;
    victims_line.(!victims_head) <- line;
    victims_sig.(!victims_head) <- signature.(slot);
    victims_head := (!victims_head + 1) mod victim_buffer_size
  in
  let storage_bits =
    (n_tables * table_entries * 8) (* prediction tables: 3 KiB *)
    + (sets * ways) (* per-line dead bit: 64 B *)
    + (sets * ways * 16) (* per-line signature: 1 KiB *)
    + history_bits (* history register: 2 B *)
  in
  {
    Policy.name = "ghrp";
    on_hit;
    on_fill;
    fill_decision = Policy.nop_fill_decision;
    may_bypass = false;
    victim;
    on_eviction;
    on_invalidate = Policy.nop_way;
    demote = (fun ~set ~way -> dead.((set * ways) + way) <- true);
    storage_bits;
    duel = None;
  }
