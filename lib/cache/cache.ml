module Addr = Ripple_isa.Addr

(* Way state encoding in [state]: *)
let st_cold = 0 (* never held a line *)
let st_hinted = 1 (* emptied by a Ripple invalidation *)
let st_valid = 2

type t = {
  geom : Geometry.t;
  sets : int;
  ways : int;
  tags : int array; (* line number per slot, dense [set * ways + way] *)
  state : int array;
  policy : Policy.t;
  stats : Stats.t;
  seen : (int, unit) Hashtbl.t; (* lines ever referenced, for cold misses *)
}

type result = Hit | Miss

let create ~geometry ~policy () =
  let sets = Geometry.sets geometry and ways = geometry.Geometry.ways in
  let policy = policy ~sets ~ways in
  {
    geom = geometry;
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    state = Array.make (sets * ways) st_cold;
    policy;
    stats = Stats.create ();
    seen = Hashtbl.create 65536;
  }

let stats t = t.stats
let duel t = t.policy.Policy.duel
let may_bypass t = t.policy.Policy.may_bypass

let slot t set way = (set * t.ways) + way

(* The lookup helpers return the way index or [-1] rather than an
   option, and recurse at top level rather than through an inner [go]:
   both the option result and the capturing closure would otherwise be
   a heap allocation on every cache access. *)
let rec find_way_from t set line way =
  if way >= t.ways then -1
  else begin
    let s = slot t set way in
    if t.state.(s) = st_valid && t.tags.(s) = line then way
    else find_way_from t set line (way + 1)
  end

let find_way t set line = find_way_from t set line 0

let rec find_state_from t set target way =
  if way >= t.ways then -1
  else if t.state.(slot t set way) = target then way
  else find_state_from t set target (way + 1)

let find_state t set target = find_state_from t set target 0

let contains t line =
  let set = Geometry.set_of_line t.geom line in
  find_way t set line >= 0

(* Install [line] into [set]; chooses the fill way per the documented
   priority and updates statistics. *)
let fill t set (acc : Access.packed) =
  let way =
    let cold = find_state t set st_cold in
    if cold >= 0 then cold
    else begin
      let hinted = find_state t set st_hinted in
      if hinted >= 0 then begin
        t.stats.Stats.replacement_decisions <- t.stats.Stats.replacement_decisions + 1;
        t.stats.Stats.hinted_fills <- t.stats.Stats.hinted_fills + 1;
        hinted
      end
      else begin
        let way = t.policy.Policy.victim ~set in
        assert (way >= 0 && way < t.ways);
        let s = slot t set way in
        assert (t.state.(s) = st_valid);
        t.stats.Stats.replacement_decisions <- t.stats.Stats.replacement_decisions + 1;
        t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
        t.policy.Policy.on_eviction ~set ~way ~line:t.tags.(s);
        way
      end
    end
  in
  let s = slot t set way in
  t.tags.(s) <- Access.packed_line acc;
  t.state.(s) <- st_valid;
  t.policy.Policy.on_fill ~set ~way acc

let access_packed t (acc : Access.packed) =
  let line = Access.packed_line acc in
  let set = Geometry.set_of_line t.geom line in
  if Access.packed_is_demand acc then begin
    t.stats.Stats.demand_accesses <- t.stats.Stats.demand_accesses + 1;
    let way = find_way t set line in
    if way >= 0 then begin
      t.policy.Policy.on_hit ~set ~way acc;
      Hit
    end
    else begin
      t.stats.Stats.demand_misses <- t.stats.Stats.demand_misses + 1;
      if not (Hashtbl.mem t.seen line) then begin
        Hashtbl.add t.seen line ();
        t.stats.Stats.demand_misses_cold <- t.stats.Stats.demand_misses_cold + 1
      end;
      (match t.policy.Policy.fill_decision ~set acc with
      | `Install -> fill t set acc
      | `Bypass -> t.stats.Stats.fill_bypasses <- t.stats.Stats.fill_bypasses + 1);
      Miss
    end
  end
  else begin
    t.stats.Stats.prefetch_accesses <- t.stats.Stats.prefetch_accesses + 1;
    if find_way t set line >= 0 then Hit
    else begin
      Hashtbl.replace t.seen line ();
      (match t.policy.Policy.fill_decision ~set acc with
      | `Install ->
        t.stats.Stats.prefetch_fills <- t.stats.Stats.prefetch_fills + 1;
        fill t set acc
      | `Bypass -> t.stats.Stats.fill_bypasses <- t.stats.Stats.fill_bypasses + 1);
      Miss
    end
  end

let access t (acc : Access.t) = access_packed t (Access.pack acc)

let invalidate t line =
  let set = Geometry.set_of_line t.geom line in
  let way = find_way t set line in
  if way >= 0 then begin
    let s = slot t set way in
    t.state.(s) <- st_hinted;
    t.tags.(s) <- -1;
    t.stats.Stats.invalidate_hits <- t.stats.Stats.invalidate_hits + 1;
    t.policy.Policy.on_invalidate ~set ~way
  end
  else t.stats.Stats.invalidate_misses <- t.stats.Stats.invalidate_misses + 1

let demote t line =
  let set = Geometry.set_of_line t.geom line in
  let way = find_way t set line in
  if way >= 0 then begin
    t.stats.Stats.demotes <- t.stats.Stats.demotes + 1;
    t.policy.Policy.demote ~set ~way
  end
  else t.stats.Stats.invalidate_misses <- t.stats.Stats.invalidate_misses + 1

let flush t =
  Array.fill t.state 0 (Array.length t.state) st_cold;
  Array.fill t.tags 0 (Array.length t.tags) (-1)

let save t =
  let tags' = Array.copy t.tags in
  let state' = Array.copy t.state in
  let stats' = Stats.copy t.stats in
  let seen' = Hashtbl.copy t.seen in
  let restore_policy = t.policy.Policy.save () in
  fun () ->
    Array.blit tags' 0 t.tags 0 (Array.length t.tags);
    Array.blit state' 0 t.state 0 (Array.length t.state);
    Stats.copy_into ~src:stats' ~dst:t.stats;
    Hashtbl.reset t.seen;
    Hashtbl.iter (fun line () -> Hashtbl.replace t.seen line ()) seen';
    restore_policy ()

let resident_lines t =
  let acc = ref [] in
  for s = Array.length t.tags - 1 downto 0 do
    if t.state.(s) = st_valid then acc := t.tags.(s) :: !acc
  done;
  !acc

let occupancy t ~set =
  let n = ref 0 in
  for way = 0 to t.ways - 1 do
    if t.state.(slot t set way) = st_valid then incr n
  done;
  !n
