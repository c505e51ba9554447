(* Dense reference for Abs_cache: the product-domain abstract cache
   solve over the whole closed graph (one chunk per cache set, all sets
   in every node's state) and the three per-line proof passes swept in
   postorder over every block.  It computes the same least fixpoints as
   Abs_cache's per-set slices by a route that shares none of their
   graph reduction, so the property tests can compare facts and
   verdicts exactly. *)

module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Geometry = Ripple_cache.Geometry
module Fixpoint = Ripple_analysis.Fixpoint
module Abs = Ripple_analysis.Abs_cache

let bpw = Sys.int_size
let bs_get s i = s.(i / bpw) land (1 lsl (i mod bpw)) <> 0

let bs_set s i =
  let w = i / bpw in
  s.(w) <- s.(w) lor (1 lsl (i mod bpw))

let bs_clear s i =
  let w = i / bpw in
  s.(w) <- s.(w) land lnot (1 lsl (i mod bpw))

let bs_inter_into dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) land src.(w)
  done

let bs_union_into dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) lor src.(w)
  done

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let bs_count s = Array.fold_left (fun acc w -> acc + popcount w) 0 s

(* Per cache set: must-any bits, may bits, LRU age bounds ([ways] = no
   bound).  Untouched chunks are shared by pointer between states. *)
type chunk = { any : int array; may : int array; age : Bytes.t }

let copy_chunk c = { any = Array.copy c.any; may = Array.copy c.may; age = Bytes.copy c.age }
let chunk_equal a b = a == b || (a.any = b.any && a.may = b.may && Bytes.equal a.age b.age)

let chunk_join a b =
  if a == b then a
  else begin
    let any = Array.copy a.any in
    bs_inter_into any b.any;
    let may = Array.copy a.may in
    bs_union_into may b.may;
    let age = Bytes.copy a.age in
    for i = 0 to Bytes.length age - 1 do
      let y = Bytes.get_uint8 b.age i in
      if y > Bytes.get_uint8 age i then Bytes.set_uint8 age i y
    done;
    let c = { any; may; age } in
    if chunk_equal c a then a else if chunk_equal c b then b else c
  end

module Dom = struct
  type t = chunk array

  let equal a b =
    a == b
    ||
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go s = s >= n || (chunk_equal a.(s) b.(s) && go (s + 1)) in
    go 0

  let join a b =
    if a == b then a else Array.init (Array.length a) (fun s -> chunk_join a.(s) b.(s))
end

module Solver = Fixpoint.Make (Dom)

type pass = { r : bool array; fe : bool array; d : int array array; top : int array }

type t = {
  geometry : Geometry.t;
  blocks : Basic_block.t array;
  succs : int list array;
  preds : int list array;
  reach : bool array;
  id_of_line : (Addr.line, int) Hashtbl.t;
  line_of_id : int array;
  set_members : int list array;
  set_slot : int array;
  pers : bool array;
  post : int array;
  facts : Abs.site_fact array array;
  hint_res : (bool * bool) array array;
}

let analyze ~geometry ~entry blocks =
  let n = Array.length blocks in
  let ways = geometry.Geometry.ways in
  let nsets = Geometry.sets geometry in
  (* The closed graph, with every Return routed through a resume hub
     (node [n]) to each call's return site and the entry; Halt restarts
     at the entry. *)
  let nn = n + 1 in
  let hub = n in
  let return_tos =
    Array.fold_left
      (fun acc (b : Basic_block.t) ->
        match b.Basic_block.term with
        | Basic_block.Call { return_to; _ } | Basic_block.Indirect_call { return_to; _ } ->
          return_to :: acc
        | _ -> acc)
      [] blocks
  in
  let succs = Array.make nn [] in
  succs.(hub) <-
    List.filter (fun s -> s >= 0 && s < n) (List.sort_uniq compare (entry :: return_tos));
  Array.iteri
    (fun v (b : Basic_block.t) ->
      let extra =
        match b.Basic_block.term with
        | Basic_block.Return -> [ hub ]
        | Basic_block.Halt -> [ entry ]
        | _ -> []
      in
      succs.(v) <-
        List.filter
          (fun s -> s >= 0 && s < nn)
          (List.sort_uniq compare (Ripple_analysis.Cfg.flow_successors b @ extra)))
    blocks;
  let preds = Array.make nn [] in
  for v = nn - 1 downto 0 do
    List.iter (fun s -> preds.(s) <- v :: preds.(s)) succs.(v)
  done;
  let reach = Array.make nn false in
  let rec mark v =
    if not reach.(v) then begin
      reach.(v) <- true;
      List.iter mark succs.(v)
    end
  in
  if entry >= 0 && entry < n then mark entry;
  (* Postorder over [succs] (successors before predecessors). *)
  let post = Array.make nn 0 in
  let postn = ref 0 in
  let pushed = Array.make nn false in
  let rec dfs v =
    pushed.(v) <- true;
    List.iter (fun s -> if not pushed.(s) then dfs s) succs.(v);
    post.(!postn) <- v;
    incr postn
  in
  if entry >= 0 && entry < n then dfs entry;
  for v = 0 to nn - 1 do
    if not pushed.(v) then begin
      post.(!postn) <- v;
      incr postn
    end
  done;
  let id_of_line = Hashtbl.create 256 in
  let rev_lines = ref [] in
  let k = ref 0 in
  Array.iteri
    (fun v b ->
      if reach.(v) then
        List.iter
          (fun l ->
            if not (Hashtbl.mem id_of_line l) then begin
              Hashtbl.add id_of_line l !k;
              rev_lines := l :: !rev_lines;
              incr k
            end)
          (Basic_block.lines b))
    blocks;
  let k = !k in
  let line_of_id = Array.of_list (List.rev !rev_lines) in
  let set_of_id = Array.map (fun l -> Geometry.set_of_line geometry l) line_of_id in
  let set_members = Array.make nsets [] in
  for i = k - 1 downto 0 do
    set_members.(set_of_id.(i)) <- i :: set_members.(set_of_id.(i))
  done;
  let set_slot = Array.make (max 1 k) 0 in
  Array.iter (fun ms -> List.iteri (fun slot i -> set_slot.(i) <- slot) ms) set_members;
  let set_size = Array.map List.length set_members in
  let pers = Array.map (fun m -> m <= ways) set_size in
  let block_line_ids =
    Array.mapi
      (fun v b ->
        if reach.(v) then
          Array.of_list (List.map (Hashtbl.find id_of_line) (Basic_block.lines b))
        else [||])
      blocks
  in
  let own ~base st s = if st.(s) == base.(s) then st.(s) <- copy_chunk st.(s) in
  let touch ~base st i =
    let s = set_of_id.(i) in
    own ~base st s;
    let ch = st.(s) in
    let sl = set_slot.(i) in
    if not (bs_get ch.any sl) then begin
      if not pers.(s) then Array.fill ch.any 0 (Array.length ch.any) 0;
      bs_set ch.any sl
    end;
    let a = Bytes.get_uint8 ch.age sl in
    for j = 0 to set_size.(s) - 1 do
      if j <> sl then begin
        let aj = Bytes.get_uint8 ch.age j in
        if aj < a then Bytes.set_uint8 ch.age j (aj + 1)
      end
    done;
    Bytes.set_uint8 ch.age sl 0;
    bs_set ch.may sl
  in
  let apply_hint ~base st h =
    match Hashtbl.find_opt id_of_line (Basic_block.hint_line h) with
    | None -> ()
    | Some i -> (
      let s = set_of_id.(i) in
      own ~base st s;
      let ch = st.(s) in
      let sl = set_slot.(i) in
      match h with
      | Basic_block.Invalidate _ ->
        bs_clear ch.any sl;
        bs_clear ch.may sl;
        Bytes.set_uint8 ch.age sl ways
      | Basic_block.Demote _ ->
        if Bytes.get_uint8 ch.age sl < ways then Bytes.set_uint8 ch.age sl (ways - 1))
  in
  let transfer v st =
    if v = hub then st
    else begin
      let base = st in
      let st = Array.copy st in
      Array.iter (touch ~base st) block_line_ids.(v);
      Array.iter (apply_hint ~base st) blocks.(v).Basic_block.hints;
      st
    end
  in
  let empty =
    Array.init nsets (fun s ->
        let m = set_size.(s) in
        {
          any = Array.make ((m + bpw - 1) / bpw) 0;
          may = Array.make ((m + bpw - 1) / bpw) 0;
          age = Bytes.make m (Char.chr ways);
        })
  in
  let entries = if entry >= 0 && entry < n then [ (entry, empty) ] else [] in
  let res = Solver.solve ~n:nn ~entries ~preds ~transfer () in
  let facts = Array.make n [||] in
  let hint_res = Array.make n [||] in
  Array.iteri
    (fun v (b : Basic_block.t) ->
      match res.Solver.in_.(v) with
      | None -> ()
      | Some base ->
        let st = Array.copy base in
        facts.(v) <-
          Array.mapi
            (fun index i ->
              let ch = st.(set_of_id.(i)) in
              let sl = set_slot.(i) in
              let any = bs_get ch.any sl in
              let f =
                {
                  Abs.index;
                  line = line_of_id.(i);
                  must_hit = any;
                  must_hit_lru = any || Bytes.get_uint8 ch.age sl < ways;
                  always_miss = not (bs_get ch.may sl);
                }
              in
              touch ~base st i;
              f)
            block_line_ids.(v);
        hint_res.(v) <-
          Array.map
            (fun h ->
              let r =
                match Hashtbl.find_opt id_of_line (Basic_block.hint_line h) with
                | None -> (false, false)
                | Some i ->
                  let ch = st.(set_of_id.(i)) in
                  (bs_get ch.any set_slot.(i), bs_get ch.may set_slot.(i))
              in
              apply_hint ~base st h;
              r)
            b.Basic_block.hints)
    blocks;
  {
    geometry;
    blocks;
    succs;
    preds;
    reach;
    id_of_line;
    line_of_id;
    set_members;
    set_slot;
    pers;
    post;
    facts;
    hint_res;
  }

let facts t = t.facts

(* The three per-line passes over every block of the closed graph: [r]
   may-reuse reachability, [fe] "first same-set event is the line"
   least fixpoint, [d] guaranteed-conflict greatest fixpoint swept in
   postorder until stable. *)
let compute_pass t l =
  let nb = Array.length t.blocks in
  let nn = Array.length t.succs in
  let sl = Geometry.set_of_line t.geometry l in
  let refs = Array.make nn false in
  let invs = Array.make nn false in
  for v = 0 to nb - 1 do
    refs.(v) <- List.mem l (Basic_block.lines t.blocks.(v));
    invs.(v) <-
      Array.exists
        (function Basic_block.Invalidate x -> x = l | Basic_block.Demote _ -> false)
        t.blocks.(v).Basic_block.hints
  done;
  let r = Array.make nn false in
  let q = Queue.create () in
  for v = 0 to nn - 1 do
    if t.reach.(v) && refs.(v) then begin
      r.(v) <- true;
      Queue.add v q
    end
  done;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun p ->
        if t.reach.(p) && (not r.(p)) && not invs.(p) then begin
          r.(p) <- true;
          Queue.add p q
        end)
      t.preds.(v)
  done;
  let event v =
    if not t.reach.(v) then -1
    else if v >= nb then 0
    else begin
      let ev =
        match
          List.find_opt
            (fun (f : Abs.site_fact) ->
              f.Abs.line = l
              || (Geometry.set_of_line t.geometry f.Abs.line = sl && not f.Abs.must_hit))
            (Array.to_list t.facts.(v))
        with
        | Some f -> if f.Abs.line = l then 1 else -1
        | None -> 0
      in
      if ev = 0 && invs.(v) then -1 else ev
    end
  in
  let fe = Array.make nn false in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to nn - 1 do
      if not fe.(v) then begin
        let now =
          match event v with
          | 1 -> true
          | 0 -> t.succs.(v) <> [] && List.for_all (fun s -> fe.(s)) t.succs.(v)
          | _ -> false
        in
        if now then begin
          fe.(v) <- true;
          changed := true
        end
      end
    done
  done;
  let members = t.set_members.(sl) in
  let nw = max 1 ((List.length members + bpw - 1) / bpw) in
  let top = Array.make nw 0 in
  List.iter (fun i -> if t.line_of_id.(i) <> l then bs_set top t.set_slot.(i)) members;
  let scan v =
    let acc = Array.make nw 0 in
    let rec go = function
      | [] -> (false, acc)
      | line :: rest ->
        if line = l then (true, acc)
        else begin
          if Geometry.set_of_line t.geometry line = sl then
            Option.iter
              (fun i -> bs_set acc t.set_slot.(i))
              (Hashtbl.find_opt t.id_of_line line);
          go rest
        end
    in
    if v < nb && t.reach.(v) then go (Basic_block.lines t.blocks.(v)) else (false, acc)
  in
  let d = Array.make nn top in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun v ->
        if t.reach.(v) then begin
          let closed, acc = scan v in
          let nv =
            if closed then acc
            else if invs.(v) then Array.copy top
            else begin
              let x = Array.copy top in
              List.iter (fun s -> bs_inter_into x d.(s)) t.succs.(v);
              bs_union_into x acc;
              x
            end
          in
          if nv <> d.(v) then begin
            d.(v) <- nv;
            changed := true
          end
        end)
      t.post
  done;
  { r; fe; d; top }

let prove t ~block ~index =
  let hints = t.blocks.(block).Basic_block.hints in
  let h = hints.(index) in
  let l = Basic_block.hint_line h in
  let demote = match h with Basic_block.Demote _ -> true | Basic_block.Invalidate _ -> false in
  if not t.reach.(block) then Abs.Proved_noop
  else begin
    let resident_any, resident_may = t.hint_res.(block).(index) in
    let later_inv = ref false in
    for j = index + 1 to Array.length hints - 1 do
      match hints.(j) with Basic_block.Invalidate x when x = l -> later_inv := true | _ -> ()
    done;
    let succs = t.succs.(block) in
    let ways = t.geometry.Geometry.ways in
    if not resident_may then Abs.Proved_noop
    else begin
      let p = compute_pass t l in
      if !later_inv || List.for_all (fun s -> not p.r.(s)) succs then Abs.Proved_dead
      else if
        demote
        &&
        match Hashtbl.find_opt t.id_of_line l with
        | Some i -> t.pers.(Geometry.set_of_line t.geometry t.line_of_id.(i))
        | None -> false
      then Abs.Proved_persistent
      else begin
        let inter = Array.copy p.top in
        List.iter (fun s -> bs_inter_into inter p.d.(s)) succs;
        if bs_count inter >= ways then Abs.Proved_pressure
        else if
          (not demote) && resident_any && succs <> [] && List.for_all (fun s -> p.fe.(s)) succs
        then Abs.Proved_harmful
        else Abs.Unproved
      end
    end
  end
