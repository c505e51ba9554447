module Addr = Ripple_isa.Addr
module Scratch = Ripple_util.Int_stream.Scratch

type mode = Min | Demand_min

type next_ref = Next_demand | Next_prefetch | Never

type eviction = { at : int; line : Addr.line; set : int; last_use : int; next : next_ref }

type result = {
  mode : mode;
  demand_accesses : int;
  demand_misses : int;
  demand_misses_cold : int;
  prefetch_accesses : int;
  prefetch_fills : int;
  n_evictions : int;
  evictions : eviction array;
  fills : int array;
}

let infinity_idx = max_int

(* next_demand.(i) / next_prefetch.(i): index of the next demand/prefetch
   access to the same line, strictly after access i.  One backward pass
   over the packed stream; no access is ever boxed.  The tables are
   2 words per access — at 100 M accesses they dominate peak memory, so
   they can live in unlinked mmap scratch instead of the heap. *)
type tables = { next_demand : Scratch.t; next_prefetch : Scratch.t }

let prepare ?backing (stream : Access_stream.t) =
  let n = Access_stream.length stream in
  let next_demand = Scratch.make ?backing (max n 1) infinity_idx in
  let next_prefetch = Scratch.make ?backing (max n 1) infinity_idx in
  let last_demand = Hashtbl.create 65536 and last_prefetch = Hashtbl.create 65536 in
  Access_stream.iteri_rev
    (fun i acc ->
      let line = Access.packed_line acc in
      (match Hashtbl.find_opt last_demand line with
      | Some j -> Scratch.set next_demand i j
      | None -> ());
      (match Hashtbl.find_opt last_prefetch line with
      | Some j -> Scratch.set next_prefetch i j
      | None -> ());
      if Access.packed_is_demand acc then Hashtbl.replace last_demand line i
      else Hashtbl.replace last_prefetch line i)
    stream;
  { next_demand; next_prefetch }

let close_tables t =
  Scratch.close t.next_demand;
  Scratch.close t.next_prefetch

let simulate ?tables ?(record_fills = false) ?(record_evictions = true)
    ?(on_fill = fun ~index:_ _ -> ()) ?(count_from = 0) geometry ~mode
    (stream : Access_stream.t) =
  let owned_tables = match tables with None -> Some (prepare stream) | Some _ -> None in
  let tbl = match tables with Some t -> t | None -> Option.get owned_tables in
  let nd j = Scratch.get tbl.next_demand j and np j = Scratch.get tbl.next_prefetch j in
  let sets = Geometry.sets geometry and ways = geometry.Geometry.ways in
  (* Per-slot resident line and its most recent access index. *)
  let tags = Array.make (sets * ways) (-1) in
  let last_idx = Array.make (sets * ways) (-1) in
  let seen = Hashtbl.create 65536 in
  let demand_accesses = ref 0 in
  let demand_misses = ref 0 in
  let demand_misses_cold = ref 0 in
  let prefetch_accesses = ref 0 in
  let prefetch_fills = ref 0 in
  let evictions = ref [] in
  let n_evictions = ref 0 in
  let fills = ref [||] in
  let fills_len = ref 0 in
  let push_fill i =
    if record_fills then begin
      if !fills_len = Array.length !fills then begin
        let bigger = Array.make (max 64 (2 * !fills_len)) 0 in
        Array.blit !fills 0 bigger 0 !fills_len;
        fills := bigger
      end;
      !fills.(!fills_len) <- i;
      incr fills_len
    end
  in
  (* Way index or [-1]: option results would be the loop's only
     per-access allocation. *)
  let find_way set line =
    let rec go way =
      if way >= ways then -1
      else if tags.((set * ways) + way) = line then way
      else go (way + 1)
    in
    go 0
  in
  let free_way set =
    let rec go way =
      if way >= ways then -1
      else if tags.((set * ways) + way) = -1 then way
      else go (way + 1)
    in
    go 0
  in
  (* Victim selection; see the .mli for the Demand-MIN rule. *)
  let choose_victim set =
    let best_way = ref 0 in
    (match mode with
    | Min ->
      let best_next = ref (-1) in
      for way = 0 to ways - 1 do
        let j = last_idx.((set * ways) + way) in
        let next = min (nd j) (np j) in
        if next > !best_next then begin
          best_next := next;
          best_way := way
        end
      done
    | Demand_min ->
      (* Class A: next reference is a prefetch (or none at all); evict
         the one whose prefetch is farthest.  Class B fallback: farthest
         next demand. *)
      let best_a = ref (-1) and best_a_key = ref (-1) in
      let best_b = ref (-1) and best_b_key = ref (-1) in
      for way = 0 to ways - 1 do
        let j = last_idx.((set * ways) + way) in
        let ndj = nd j and npj = np j in
        if npj < ndj || (ndj = infinity_idx && npj = infinity_idx) then begin
          if npj > !best_a_key || !best_a < 0 then begin
            best_a_key := npj;
            best_a := way
          end
        end
        else if ndj > !best_b_key then begin
          best_b_key := ndj;
          best_b := way
        end
      done;
      best_way := (if !best_a >= 0 then !best_a else !best_b));
    !best_way
  in
  Access_stream.iteri
    (fun i acc ->
      let line = Access.packed_line acc in
      let set = Geometry.set_of_line geometry line in
      let counted = i >= count_from in
      let is_demand = Access.packed_is_demand acc in
      (if is_demand then (if counted then incr demand_accesses)
       else if counted then incr prefetch_accesses);
      let hit_way = find_way set line in
      if hit_way >= 0 then last_idx.((set * ways) + hit_way) <- i
      else begin
        on_fill ~index:i acc;
        push_fill i;
        (if is_demand then begin
           if counted then incr demand_misses;
           if not (Hashtbl.mem seen line) then begin
             Hashtbl.add seen line ();
             if counted then incr demand_misses_cold
           end
         end
         else begin
           Hashtbl.replace seen line ();
           if counted then incr prefetch_fills
         end);
        let way =
          let free = free_way set in
          if free >= 0 then free
          else begin
            let way = choose_victim set in
            let slot = (set * ways) + way in
            let j = last_idx.(slot) in
            let next =
              let ndj = nd j and npj = np j in
              if ndj = infinity_idx && npj = infinity_idx then Never
              else if npj < ndj then Next_prefetch
              else Next_demand
            in
            if record_evictions then
              evictions :=
                { at = i; line = tags.(slot); set; last_use = j; next } :: !evictions;
            incr n_evictions;
            way
          end
        in
        let slot = (set * ways) + way in
        tags.(slot) <- line;
        last_idx.(slot) <- i
      end)
    stream;
  (match owned_tables with Some t -> close_tables t | None -> ());
  {
    mode;
    demand_accesses = !demand_accesses;
    demand_misses = !demand_misses;
    demand_misses_cold = !demand_misses_cold;
    prefetch_accesses = !prefetch_accesses;
    prefetch_fills = !prefetch_fills;
    n_evictions = !n_evictions;
    evictions = Array.of_list (List.rev !evictions);
    fills = Array.sub !fills 0 !fills_len;
  }

let mpki result ~instructions =
  if instructions = 0 then 0.0
  else 1000.0 *. Float.of_int result.demand_misses /. Float.of_int instructions
