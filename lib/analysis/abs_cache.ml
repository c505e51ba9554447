module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Geometry = Ripple_cache.Geometry
module Json = Ripple_util.Json

(* ------------------------------------------------------------------ *)
(* Small dense bit sets over [0, k), packed into int arrays: cheap to
   copy (Array.copy / memcpy) and joined a word at a time. *)

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

let bs_subset a b =
  let n = Array.length a in
  let rec go w = w >= n || (a.(w) land lnot b.(w) = 0 && go (w + 1)) in
  go 0

let int_array_equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let bs_count s = Array.fold_left (fun acc w -> acc + popcount w) 0 s

(* ------------------------------------------------------------------ *)
(* One cache set's abstract state: per member line of the set, one bit
   for must-any and may residency and one byte for the LRU age bound
   ([ways] encodes "no bound", i.e. possibly absent).  Lines in
   different sets never interact, so [analyze] solves each set on its
   own over this single chunk. *)

type chunk = { any : int array; may : int array; age : Bytes.t }

let copy_chunk c =
  { any = Array.copy c.any; may = Array.copy c.may; age = Bytes.copy c.age }

let chunk_equal a b =
  a == b
  || int_array_equal a.any b.any && int_array_equal a.may b.may && Bytes.equal a.age b.age

(* [chunk_leq a b] is [a ⊑ b]: [b]'s must bits among [a]'s, [a]'s may
   bits among [b]'s, and no age of [a] above [b]'s. *)
let chunk_leq a b =
  bs_subset b.any a.any && bs_subset a.may b.may
  &&
  let n = Bytes.length a.age in
  let rec go i = i >= n || (Bytes.get_uint8 a.age i <= Bytes.get_uint8 b.age i && go (i + 1)) in
  go 0

(* Inclusion is tested before anything is allocated: most joins along
   the solver's edges add nothing, and handing back an argument keeps
   the solver's equality checks pointer-fast. *)
let chunk_join a b =
  if a == b || chunk_leq b a then a
  else if chunk_leq a b then b
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
    { any; may; age }
  end

module Solver = Fixpoint.Make (struct
  type t = chunk

  let equal = chunk_equal
  let join = chunk_join
end)

type site_fact = {
  index : int;
  line : Addr.line;
  must_hit : bool;
  must_hit_lru : bool;
  always_miss : bool;
}

(* One cache set's slice of the closed graph (see [analyze]).  Nodes
   are numbered locally; [node] maps them back to closed-graph ids, in
   ascending order.  [leak.(i)]: some closed-graph path from node [i]
   through blocks of other sets only stops at a block without
   successors or loops forever, so it never reaches another node. *)
type slice = {
  node : int array;
  succ : int list array;
  pred : int list array;
  leak : bool array;
}

type slice_stats = { nodes : int; edges : int; walked : int }

(* Memoized per-hint-line auxiliary passes (see [prove]), indexed by
   the line's slice:
   [r]  — may the line be re-referenced, before another invalidation of
          it, starting at this node?  (backward reachability, used for
          Proved_dead)
   [fe] — on *every* closed path from this node, is the first same-set
          event an access to the line itself?  (least fixpoint, used
          for Proved_harmful)
   [d]  — which distinct same-set lines are touched on every path
          before the line is re-referenced?  (greatest fixpoint over
          per-set bit sets, used for Proved_pressure) *)
type pass = { r : bool array; fe : bool array; d : int array array; top : int array }

type t = {
  geometry : Geometry.t;
  blocks : Basic_block.t array;
  reach : bool array;  (* closed-graph nodes: the blocks, then the resume hub *)
  k : int;  (* tracked (reachable-footprint) line count *)
  id_of_line : (Addr.line, int) Hashtbl.t;
  line_of_id : int array;
  set_of_id : int array;
  set_members : int list array;  (* per cache set, ids ascending *)
  set_slot : int array;  (* id -> position within its set's members *)
  pers : bool array;  (* per cache set *)
  invalidated : (Addr.line, unit) Hashtbl.t;  (* lines hinted away somewhere reachable *)
  line_ids : int array array;  (* per block: its lines' ids, in execution order *)
  slices : slice array;  (* per cache set; empty when no tracked line maps there *)
  facts : site_fact array array;
  hint_res : (bool * bool) array array;  (* (must-any, may) residency at each hint *)
  stats : Fixpoint.stats;
  slice_stats : slice_stats;
  passes : (Addr.line, pass) Hashtbl.t;
}

let analyze ~geometry ~entry blocks =
  let n = Array.length blocks in
  let ways = geometry.Geometry.ways in
  if ways < 1 || ways > 254 then
    invalid_arg "Abs_cache.analyze: associativity out of range";
  let nsets = Geometry.sets geometry in
  (* The return closure is factored through a virtual resume hub (node
     [n], no code, identity transfer): every [Return] feeds the hub and
     the hub feeds every resume site.  Joins are associative and
     idempotent, so every fixpoint over the factored graph equals the
     one over the direct closure, while the edge count drops from
     |returns| x |sites| to |returns| + |sites| — the difference between
     minutes and milliseconds on data-center-sized CFGs, where both
     factors run into the hundreds. *)
  let nn = n + 1 in
  let hub = n in
  let return_tos =
    Array.fold_left
      (fun acc (b : Basic_block.t) ->
        match b.Basic_block.term with
        | Basic_block.Call { return_to; _ } | Basic_block.Indirect_call { return_to; _ }
          ->
          return_to :: acc
        | _ -> acc)
      [] blocks
  in
  let resume =
    List.filter (fun s -> s >= 0 && s < n) (List.sort_uniq compare (entry :: return_tos))
  in
  let succs = Array.make nn (Array.of_list resume) in
  Array.iteri
    (fun v (b : Basic_block.t) ->
      let extra =
        match b.Basic_block.term with
        | Basic_block.Return -> [ hub ]
        | Basic_block.Halt -> [ entry ]
        | _ -> []
      in
      succs.(v) <-
        Array.of_list
          (List.filter
             (fun s -> s >= 0 && s < nn)
             (List.sort_uniq compare (Cfg.flow_successors b @ extra))))
    blocks;
  let reach = Array.make nn false in
  if entry >= 0 && entry < n then begin
    let q = Queue.create () in
    reach.(entry) <- true;
    Queue.add entry q;
    while not (Queue.is_empty q) do
      Array.iter
        (fun s ->
          if not reach.(s) then begin
            reach.(s) <- true;
            Queue.add s q
          end)
        succs.(Queue.pop q)
    done
  end;
  (* Tracked lines: the reachable footprint, ids in first-seen order. *)
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
  let invalidated = Hashtbl.create 64 in
  Array.iteri
    (fun v (b : Basic_block.t) ->
      if reach.(v) then
        Array.iter
          (function
            | Basic_block.Invalidate l -> Hashtbl.replace invalidated l ()
            | Basic_block.Demote _ -> ())
          b.Basic_block.hints)
    blocks;
  let line_ids =
    Array.mapi
      (fun v b ->
        if reach.(v) then
          Array.of_list (List.map (Hashtbl.find id_of_line) (Basic_block.lines b))
        else [||])
      blocks
  in
  (* Per cache set, the reachable blocks whose lines or hints map to
     it, ascending. *)
  let by_set = Array.make nsets [] in
  let last = Array.make nsets (-1) in
  let note s v =
    if last.(s) <> v then begin
      last.(s) <- v;
      by_set.(s) <- v :: by_set.(s)
    end
  in
  for v = n - 1 downto 0 do
    if reach.(v) then begin
      Array.iter (fun i -> note set_of_id.(i) v) line_ids.(v);
      Array.iter
        (fun h -> note (Geometry.set_of_line geometry (Basic_block.hint_line h)) v)
        blocks.(v).Basic_block.hints
    end
  done;
  let touch ch s sl =
    if not (bs_get ch.any sl) then begin
      (* A potential miss in a non-persistent set may evict anything
         there, whichever policy picks the victim. *)
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
  let apply_hint ch sl = function
    | Basic_block.Invalidate _ ->
      bs_clear ch.any sl;
      bs_clear ch.may sl;
      Bytes.set_uint8 ch.age sl ways
    | Basic_block.Demote _ ->
      (* Residency is untouched (a demote never evicts; in a persistent
         set the victim is never consulted), but under LRU the line now
         sits at the eviction-first position. *)
      if Bytes.get_uint8 ch.age sl < ways then Bytes.set_uint8 ch.age sl (ways - 1)
  in
  (* Set [s]'s events in block [v] — its line accesses in execution
     order, then its hints in order, matching the simulator's per-block
     sequence — applied to [st], which is copied on first write.
     [on_line] and [on_hint] see the chunk just before each event. *)
  let replay s v st ~on_line ~on_hint =
    let ch = ref st in
    let own () = if !ch == st then ch := copy_chunk st in
    Array.iteri
      (fun index i ->
        if set_of_id.(i) = s then begin
          on_line index i !ch;
          own ();
          touch !ch s set_slot.(i)
        end)
      line_ids.(v);
    Array.iteri
      (fun j h ->
        match Hashtbl.find_opt id_of_line (Basic_block.hint_line h) with
        | Some i when set_of_id.(i) = s ->
          on_hint j i !ch;
          own ();
          apply_hint !ch set_slot.(i) h
        | _ -> ())
      blocks.(v).Basic_block.hints;
    !ch
  in
  let ignore_line _ _ _ = () and ignore_hint _ _ _ = () in
  (* Each fact of a reachable block is written when its line's set is
     solved below; a hint on a line outside the footprint keeps
     (false, false). *)
  let unset =
    { index = 0; line = 0; must_hit = false; must_hit_lru = false; always_miss = false }
  in
  let facts =
    Array.init n (fun v ->
        if reach.(v) then Array.make (Array.length line_ids.(v)) unset else [||])
  in
  let hint_res =
    Array.init n (fun v ->
        if reach.(v) then
          Array.make (Array.length blocks.(v).Basic_block.hints) (false, false)
        else [||])
  in
  let empty_slice = { node = [||]; succ = [||]; pred = [||]; leak = [||] } in
  let slices = Array.make nsets empty_slice in
  (* Walk state shared by every slice: [local] maps a node of the
     current slice to its local id (-1 elsewhere); the stamps hold the
     current walk's number for nodes entered, finished and recorded as
     edge targets; [path] and [next] are the depth-first search's stack
     and each entry's next successor index. *)
  let local = Array.make nn (-1) in
  let entered = Array.make nn (-1) and finished = Array.make nn (-1) in
  let target = Array.make nn (-1) in
  let path = Array.make nn 0 and next = Array.make nn 0 in
  let walks = ref 0 and walked = ref 0 in
  (* The slice of set [s]: the entry, the resume hub and the blocks of
     [by_set.(s)].  Node [i]'s successors are the nodes a walk from it
     reaches through other nodes only.  It leaks when the walk enters
     a block without successors or a loop among those other nodes; the
     walk is a depth-first search, so such a loop shows as an edge back
     to a node still on the path. *)
  let slice_of s =
    let hubs = if reach.(hub) then [ hub ] else [] in
    let node = Array.of_list (List.sort_uniq compare ((entry :: by_set.(s)) @ hubs)) in
    Array.iteri (fun i v -> local.(v) <- i) node;
    let m = Array.length node in
    let succ = Array.make m [] and leak = Array.make m false in
    for i = 0 to m - 1 do
      incr walks;
      let w = !walks in
      let out = ref [] in
      let leaks = ref (Array.length succs.(node.(i)) = 0) in
      let depth = ref 1 in
      path.(0) <- node.(i);
      next.(0) <- 0;
      while !depth > 0 do
        let top = !depth - 1 in
        let x = path.(top) in
        let j = next.(top) in
        if j = Array.length succs.(x) then begin
          finished.(x) <- w;
          decr depth
        end
        else begin
          next.(top) <- j + 1;
          let y = succs.(x).(j) in
          if local.(y) >= 0 then begin
            if target.(y) <> w then begin
              target.(y) <- w;
              out := local.(y) :: !out
            end
          end
          else if entered.(y) <> w then begin
            entered.(y) <- w;
            incr walked;
            if Array.length succs.(y) = 0 then leaks := true;
            path.(!depth) <- y;
            next.(!depth) <- 0;
            incr depth
          end
          else if finished.(y) <> w then leaks := true
        end
      done;
      succ.(i) <- List.rev !out;
      leak.(i) <- !leaks
    done;
    let pred = Array.make m [] in
    for i = m - 1 downto 0 do
      List.iter (fun j -> pred.(j) <- i :: pred.(j)) succ.(i)
    done;
    { node; succ; pred; leak }
  in
  let iterations = ref 0 and visits = ref 0 in
  let nodes = ref 0 and edges = ref 0 in
  for s = 0 to nsets - 1 do
    if set_size.(s) > 0 then begin
      let sl = slice_of s in
      slices.(s) <- sl;
      nodes := !nodes + Array.length sl.node;
      Array.iter (fun ss -> edges := !edges + List.length ss) sl.succ;
      let m = set_size.(s) in
      let empty =
        {
          any = Array.make ((m + bpw - 1) / bpw) 0;
          may = Array.make ((m + bpw - 1) / bpw) 0;
          age = Bytes.make m (Char.chr ways);
        }
      in
      let transfer i st =
        let v = sl.node.(i) in
        if v = hub then st else replay s v st ~on_line:ignore_line ~on_hint:ignore_hint
      in
      let res =
        Solver.solve ~n:(Array.length sl.node)
          ~entries:[ (local.(entry), empty) ]
          ~preds:sl.pred ~transfer ()
      in
      iterations := !iterations + res.Solver.stats.Fixpoint.iterations;
      visits := !visits + res.Solver.stats.Fixpoint.visits;
      (* Read this set's facts and hint residency now: the solver's
         per-node states die with this iteration. *)
      Array.iteri
        (fun i v ->
          match res.Solver.in_.(i) with
          | Some st when v <> hub ->
            ignore
              (replay s v st
                 ~on_line:(fun index id ch ->
                   let sl = set_slot.(id) in
                   let resident_any = bs_get ch.any sl in
                   facts.(v).(index) <-
                     {
                       index;
                       line = line_of_id.(id);
                       must_hit = resident_any;
                       must_hit_lru = resident_any || Bytes.get_uint8 ch.age sl < ways;
                       always_miss = not (bs_get ch.may sl);
                     })
                 ~on_hint:(fun j id ch ->
                   let sl = set_slot.(id) in
                   hint_res.(v).(j) <- (bs_get ch.any sl, bs_get ch.may sl))
                : chunk)
          | _ -> ())
        sl.node;
      Array.iter (fun v -> local.(v) <- -1) sl.node
    end
  done;
  {
    geometry;
    blocks;
    reach;
    k;
    id_of_line;
    line_of_id;
    set_of_id;
    set_members;
    set_slot;
    pers;
    invalidated;
    line_ids;
    slices;
    facts;
    hint_res;
    stats = { Fixpoint.iterations = !iterations; visits = !visits };
    slice_stats = { nodes = !nodes; edges = !edges; walked = !walked };
    passes = Hashtbl.create 16;
  }

let facts t = t.facts

(* [t.reach] covers the resume hub too; callers index by block id. *)
let reachable t = Array.sub t.reach 0 (Array.length t.blocks)

let persistent t ~set =
  set >= 0 && set < Array.length t.pers && t.pers.(set)

let first_miss_only t line =
  match Hashtbl.find_opt t.id_of_line line with
  | None -> false
  | Some i -> t.pers.(t.set_of_id.(i)) && not (Hashtbl.mem t.invalidated line)

let solver_stats t = t.stats
let slice_stats t = t.slice_stats

(* ------------------------------------------------------------------ *)
(* Hint proofs. *)

type verdict =
  | Proved_noop
  | Proved_dead
  | Proved_persistent
  | Proved_pressure
  | Proved_harmful
  | Unproved

let verdict_name = function
  | Proved_noop -> "proved_noop"
  | Proved_dead -> "proved_dead"
  | Proved_persistent -> "proved_persistent"
  | Proved_pressure -> "proved_pressure"
  | Proved_harmful -> "proved_harmful"
  | Unproved -> "unproved"

let proved_safe = function
  | Proved_dead | Proved_persistent | Proved_pressure -> true
  | Proved_noop | Proved_harmful | Unproved -> false

(* Line [l]'s three passes over its set's slice.  Every block of the
   closed graph outside the slice touches neither [l]'s set nor [l]'s
   hints, so it is transparent to all three: it neither references nor
   invalidates [l] (for [r]), intersects its successors' conflicts
   without adding any (for [d]), and is a non-event (for [fe]).  Only
   [fe]'s least fixpoint sees a path that never reaches a slice node
   again — such a path has no first event — which the slice records as
   [leak]. *)
let compute_pass t l =
  let nb = Array.length t.blocks in
  let s = Geometry.set_of_line t.geometry l in
  let sl = t.slices.(s) in
  let m = Array.length sl.node in
  let id = Option.value (Hashtbl.find_opt t.id_of_line l) ~default:(-1) in
  let block i = if sl.node.(i) < nb then Some sl.node.(i) else None in
  let refs =
    Array.init m (fun i ->
        match block i with Some v -> Array.mem id t.line_ids.(v) | None -> false)
  in
  let invs =
    Array.init m (fun i ->
        match block i with
        | Some v ->
          Array.exists
            (function Basic_block.Invalidate x -> x = l | Basic_block.Demote _ -> false)
            t.blocks.(v).Basic_block.hints
        | None -> false)
  in
  (* [r]: backward may-reachability of a reference to [l], gated per
     node by "no invalidation of [l] is crossed first".  A block that
     both references and invalidates counts as reaching (lines execute
     before hints). *)
  let r = Array.copy refs in
  let q = Queue.create () in
  Array.iteri (fun i x -> if x then Queue.add i q) refs;
  while not (Queue.is_empty q) do
    List.iter
      (fun p ->
        if (not r.(p)) && not invs.(p) then begin
          r.(p) <- true;
          Queue.add p q
        end)
      sl.pred.(Queue.pop q)
  done;
  (* [fe]: least fixpoint of "the first same-set event on every path
     from here is an access to [l] itself".  Per block the event is
     decided by its line scan — an access to [l] settles true, a
     possibly-missing same-set access settles false (it could evict or
     consult the policy), a must-hit same-set access is a guaranteed
     non-event in both the hinted and the unhinted world.  A
     re-invalidation of [l] settles false: the miss would happen
     anyway. *)
  let event =
    Array.init m (fun i ->
        match block i with
        | None -> 0
        | Some v ->
          let fs = t.facts.(v) in
          let rec first j =
            if j >= Array.length fs then if invs.(i) then -1 else 0
            else if fs.(j).line = l then 1
            else if t.set_of_id.(t.line_ids.(v).(j)) = s && not fs.(j).must_hit then -1
            else first (j + 1)
          in
          first 0)
  in
  let fe = Array.make m false in
  for i = 0 to m - 1 do
    if event.(i) = 1 then begin
      fe.(i) <- true;
      Queue.add i q
    end
  done;
  while not (Queue.is_empty q) do
    List.iter
      (fun p ->
        if
          (not fe.(p)) && event.(p) = 0 && (not sl.leak.(p))
          && List.for_all (fun x -> fe.(x)) sl.succ.(p)
        then begin
          fe.(p) <- true;
          Queue.add p q
        end)
      sl.pred.(Queue.pop q)
  done;
  (* [d]: greatest fixpoint of the guaranteed-distinct-conflict set —
     same-set lines touched on *every* path before [l] is
     re-referenced.  Top (= every other line in the set) means "no path
     re-references [l] without them", which also covers paths that
     never re-reference [l] at all or re-invalidate it first. *)
  let members = t.set_members.(s) in
  let nw = max 1 ((List.length members + bpw - 1) / bpw) in
  let top = Array.make nw 0 in
  List.iter (fun i -> if i <> id then bs_set top t.set_slot.(i)) members;
  (* [acc.(i)]: the same-set lines block [i] touches before [l], or in
     all if it does not touch [l]. *)
  let acc =
    Array.init m (fun i ->
        let a = Array.make nw 0 in
        (match block i with
        | None -> ()
        | Some v ->
          let ids = t.line_ids.(v) in
          let rec scan j =
            if j < Array.length ids && ids.(j) <> id then begin
              if t.set_of_id.(ids.(j)) = s then bs_set a t.set_slot.(ids.(j));
              scan (j + 1)
            end
          in
          scan 0);
        a)
  in
  (* From an all-top start only the blocks referencing [l] can change,
     so the worklist starts there. *)
  let d = Array.make m top in
  let queued = Array.copy refs in
  Array.iteri (fun i x -> if x then Queue.add i q) refs;
  let x = Array.make nw 0 in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    queued.(i) <- false;
    if refs.(i) then Array.blit acc.(i) 0 x 0 nw
    else if invs.(i) then Array.blit top 0 x 0 nw
    else begin
      Array.blit top 0 x 0 nw;
      List.iter (fun j -> bs_inter_into x d.(j)) sl.succ.(i);
      bs_union_into x acc.(i)
    end;
    if not (int_array_equal x d.(i)) then begin
      d.(i) <- Array.copy x;
      List.iter
        (fun p ->
          if not queued.(p) then begin
            queued.(p) <- true;
            Queue.add p q
          end)
        sl.pred.(i)
    end
  done;
  { r; fe; d; top }

let get_pass t l =
  match Hashtbl.find_opt t.passes l with
  | Some p -> p
  | None ->
    let p = compute_pass t l in
    Hashtbl.add t.passes l p;
    p

(* Local id of node [v] in [sl]; [v] must be one of its nodes. *)
let local_id sl v =
  let rec go lo hi =
    if lo > hi then invalid_arg "Abs_cache: node outside its slice";
    let mid = (lo + hi) / 2 in
    let x = sl.node.(mid) in
    if x = v then mid else if x < v then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length sl.node - 1)

let prove t ~block ~index =
  let n = Array.length t.blocks in
  if block < 0 || block >= n then invalid_arg "Abs_cache.prove: block out of range";
  let hints = t.blocks.(block).Basic_block.hints in
  if index < 0 || index >= Array.length hints then
    invalid_arg "Abs_cache.prove: hint index out of range";
  let h = hints.(index) in
  let l = Basic_block.hint_line h in
  let demote =
    match h with Basic_block.Demote _ -> true | Basic_block.Invalidate _ -> false
  in
  let later_inv () =
    let rec go j =
      j < Array.length hints
      && ((match hints.(j) with Basic_block.Invalidate x -> x = l | _ -> false) || go (j + 1))
    in
    go (index + 1)
  in
  if not t.reach.(block) then Proved_noop
  else begin
    let resident_any, resident_may = t.hint_res.(block).(index) in
    if not resident_may then Proved_noop
    else if later_inv () then Proved_dead
    else begin
      (* A may-resident line is tracked, and its hint puts [block] in
         its set's slice. *)
      let set = Geometry.set_of_line t.geometry l in
      let sl = t.slices.(set) in
      let i = local_id sl block in
      let p = get_pass t l in
      let succ = sl.succ.(i) in
      if List.for_all (fun s -> not p.r.(s)) succ then Proved_dead
      else if demote && t.pers.(set) then Proved_persistent
      else begin
        let inter = Array.copy p.top in
        List.iter (fun s -> bs_inter_into inter p.d.(s)) succ;
        if bs_count inter >= t.geometry.Geometry.ways then Proved_pressure
        else if
          (not demote) && resident_any && (not sl.leak.(i))
          && List.for_all (fun s -> p.fe.(s)) succ
        then Proved_harmful
        else Unproved
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Static bounds. *)

type bounds = {
  instructions : int;
  lower_misses : int;
  upper_misses : int;
  mpki_lower : float;
  mpki_upper : float;
}

let bounds t ~exec_counts =
  let n = Array.length t.blocks in
  if Array.length exec_counts <> n then None
  else begin
    let instructions = ref 0 in
    for v = 0 to n - 1 do
      instructions := !instructions + (exec_counts.(v) * t.blocks.(v).Basic_block.n_instrs)
    done;
    if !instructions <= 0 then None
    else begin
      let site_sum = Array.make (max 1 t.k) 0 in
      let executed = Array.make (max 1 t.k) false in
      let always = ref 0 in
      Array.iteri
        (fun v fs ->
          let c = exec_counts.(v) in
          Array.iter
            (fun (f : site_fact) ->
              match Hashtbl.find_opt t.id_of_line f.line with
              | None -> ()
              | Some i ->
                if c > 0 then executed.(i) <- true;
                if not f.must_hit then site_sum.(i) <- site_sum.(i) + c;
                if f.always_miss then always := !always + c)
            fs)
        t.facts;
      let upper = ref 0 in
      let cold = ref 0 in
      for i = 0 to t.k - 1 do
        if executed.(i) then incr cold;
        if first_miss_only t t.line_of_id.(i) then
          upper := !upper + min site_sum.(i) 1
        else upper := !upper + site_sum.(i)
      done;
      let lower_misses = max !always !cold in
      let per_ki x = 1000.0 *. Float.of_int x /. Float.of_int !instructions in
      Some
        {
          instructions = !instructions;
          lower_misses;
          upper_misses = !upper;
          mpki_lower = per_ki lower_misses;
          mpki_upper = per_ki !upper;
        }
    end
  end

type min_geometry = {
  coverage : float;
  dominant_blocks : int;
  dominant_lines : int;
  min_ways : int;
  min_size_bytes : int;
}

let min_geometry t ~exec_counts =
  let n = Array.length t.blocks in
  if Array.length exec_counts <> n then None
  else begin
    let weighted = ref [] in
    let total = ref 0 in
    for v = 0 to n - 1 do
      if t.reach.(v) then begin
        let w = exec_counts.(v) * t.blocks.(v).Basic_block.n_instrs in
        total := !total + w;
        if w > 0 then weighted := (v, w) :: !weighted
      end
    done;
    let total = !total in
    if total <= 0 then None
    else begin
      let order =
        List.sort
          (fun (v1, w1) (v2, w2) -> if w1 <> w2 then compare w2 w1 else compare v1 v2)
          !weighted
      in
      let chosen = ref [] in
      let cum = ref 0 in
      List.iter
        (fun (v, w) ->
          if !cum * 10 < total * 9 then begin
            cum := !cum + w;
            chosen := v :: !chosen
          end)
        order;
      let lines = Hashtbl.create 256 in
      List.iter
        (fun v ->
          List.iter (fun l -> Hashtbl.replace lines l ()) (Basic_block.lines t.blocks.(v)))
        !chosen;
      if Hashtbl.length lines = 0 then None
      else begin
        let nsets = Geometry.sets t.geometry in
        let per_set = Array.make nsets 0 in
        Hashtbl.iter
          (fun l () ->
            let s = Geometry.set_of_line t.geometry l in
            per_set.(s) <- per_set.(s) + 1)
          lines;
        let min_ways = Array.fold_left max 1 per_set in
        Some
          {
            coverage = Float.of_int !cum /. Float.of_int total;
            dominant_blocks = List.length !chosen;
            dominant_lines = Hashtbl.length lines;
            min_ways;
            min_size_bytes = nsets * min_ways * Addr.line_size;
          }
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Summary. *)

type summary = {
  blocks : int;
  sites : int;
  must_hit_sites : int;
  must_hit_lru_sites : int;
  always_miss_sites : int;
  persistent_sets : int;
  first_miss_lines : int;
  solver : Fixpoint.stats;
  bounds : bounds option;
  min_geometry : min_geometry option;
}

let summarize ?exec_counts t =
  let sites = ref 0 and mh = ref 0 and mhl = ref 0 and am = ref 0 in
  Array.iter
    (Array.iter (fun (f : site_fact) ->
         incr sites;
         if f.must_hit then incr mh;
         if f.must_hit_lru then incr mhl;
         if f.always_miss then incr am))
    t.facts;
  let blocks = ref 0 in
  for v = 0 to Array.length t.blocks - 1 do
    if t.reach.(v) then incr blocks
  done;
  let blocks = !blocks in
  let persistent_sets = ref 0 in
  Array.iteri
    (fun s ms -> if ms <> [] && t.pers.(s) then incr persistent_sets)
    t.set_members;
  let fml = ref 0 in
  for i = 0 to t.k - 1 do
    if first_miss_only t t.line_of_id.(i) then incr fml
  done;
  let bounds =
    match exec_counts with None -> None | Some ec -> bounds t ~exec_counts:ec
  in
  let min_geometry =
    match exec_counts with None -> None | Some ec -> min_geometry t ~exec_counts:ec
  in
  {
    blocks;
    sites = !sites;
    must_hit_sites = !mh;
    must_hit_lru_sites = !mhl;
    always_miss_sites = !am;
    persistent_sets = !persistent_sets;
    first_miss_lines = !fml;
    solver = t.stats;
    bounds;
    min_geometry;
  }

let bounds_to_json = function
  | None -> Json.Null
  | Some b ->
    Json.Obj
      [
        ("instructions", Json.Int b.instructions);
        ("lower_misses", Json.Int b.lower_misses);
        ("upper_misses", Json.Int b.upper_misses);
        ("mpki_lower", Json.Float b.mpki_lower);
        ("mpki_upper", Json.Float b.mpki_upper);
      ]

let min_geometry_to_json = function
  | None -> Json.Null
  | Some g ->
    Json.Obj
      [
        ("coverage", Json.Float g.coverage);
        ("dominant_blocks", Json.Int g.dominant_blocks);
        ("dominant_lines", Json.Int g.dominant_lines);
        ("min_ways", Json.Int g.min_ways);
        ("min_size_bytes", Json.Int g.min_size_bytes);
      ]

let summary_to_json s =
  Json.Obj
    [
      ("blocks", Json.Int s.blocks);
      ("sites", Json.Int s.sites);
      ("must_hit_sites", Json.Int s.must_hit_sites);
      ("must_hit_lru_sites", Json.Int s.must_hit_lru_sites);
      ("always_miss_sites", Json.Int s.always_miss_sites);
      ("persistent_sets", Json.Int s.persistent_sets);
      ("first_miss_lines", Json.Int s.first_miss_lines);
      ( "solver",
        Json.Obj
          [
            ("iterations", Json.Int s.solver.Fixpoint.iterations);
            ("visits", Json.Int s.solver.Fixpoint.visits);
          ] );
      ("bounds", bounds_to_json s.bounds);
      ("min_geometry", min_geometry_to_json s.min_geometry);
    ]
