module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Geometry = Ripple_cache.Geometry

type site = { block : int; index : int; line : Addr.line; demote : bool }

type classification =
  | Safe_dead
  | Safe_pressure
  | Harmful of { reuse_block : int; conflicts : int }
  | Redundant of { earlier : int }

let classification_name = function
  | Safe_dead -> "safe_dead"
  | Safe_pressure -> "safe_pressure"
  | Harmful _ -> "harmful"
  | Redundant _ -> "redundant"

let sites_of blocks =
  let acc = ref [] in
  Array.iter
    (fun (b : Basic_block.t) ->
      Array.iteri
        (fun index h ->
          let demote = match h with Basic_block.Demote _ -> true | _ -> false in
          acc :=
            { block = b.Basic_block.id; index; line = Basic_block.hint_line h; demote }
            :: !acc)
        b.Basic_block.hints)
    blocks;
  List.rev !acc

(* The per-call tables every per-line and per-hint pass reads, built
   once over the hinted lines only.  [succs] are the in-range flow
   successors in {!Cfg.flow_successors} order (the harmful search's
   exploration order depends on it); [roots] are the blocks with no
   flow predecessor; [hinting.(k)] lists the blocks hinting line [k] in
   site order, each once. *)
type tables = {
  succs : int array array;
  lines : Addr.line array array;
  roots : int array;
  line_index : (Addr.line, int) Hashtbl.t;
  referencing : int array array;
  hinting : int array array;
}

let tables blocks sites =
  let n = Array.length blocks in
  let succs =
    Array.map
      (fun b -> Array.of_list (List.filter (fun s -> s >= 0 && s < n) (Cfg.flow_successors b)))
      blocks
  in
  let lines = Array.map (fun b -> Array.of_list (Basic_block.lines b)) blocks in
  let indegree = Array.make n 0 in
  Array.iter (Array.iter (fun s -> indegree.(s) <- indegree.(s) + 1)) succs;
  let roots = ref [] in
  for i = n - 1 downto 0 do
    if indegree.(i) = 0 then roots := i :: !roots
  done;
  let line_index = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem line_index s.line) then
        Hashtbl.add line_index s.line (Hashtbl.length line_index))
    sites;
  let k = Hashtbl.length line_index in
  let hinting = Array.make k [] in
  List.iter
    (fun s ->
      let i = Hashtbl.find line_index s.line in
      match hinting.(i) with
      | b :: _ when b = s.block -> ()
      | bs -> hinting.(i) <- s.block :: bs)
    sites;
  let referencing = Array.make k [] in
  for b = n - 1 downto 0 do
    Array.iter
      (fun l ->
        match Hashtbl.find_opt line_index l with
        | Some i -> referencing.(i) <- b :: referencing.(i)
        | None -> ())
      lines.(b)
  done;
  {
    succs;
    lines;
    roots = Array.of_list !roots;
    line_index;
    referencing = Array.map Array.of_list referencing;
    hinting = Array.map (fun bs -> Array.of_list (List.rev bs)) hinting;
  }

(* Generation-stamped scratch over block ids, shared by every walk of
   one [classify] call: [seen.(b) = gen] marks a block reached (or, in
   the harmful search, memoised in [best]) by the current walk,
   [mark.(b) = gen] a block that hints the walk's line. *)
type scratch = {
  seen : int array;
  mark : int array;
  best : int array;
  stack : int array;
  mutable gen : int;
}

let scratch n =
  {
    seen = Array.make n 0;
    mark = Array.make n 0;
    best = Array.make n 0;
    stack = Array.make n 0;
    gen = 0;
  }

let fresh t s k =
  s.gen <- s.gen + 1;
  Array.iter (fun b -> s.mark.(b) <- s.gen) t.hinting.(k);
  s.gen

(* Must-analysis for hinted line [k] as the complement of one forward
   may-reachability.  "The line has been hinted away and not referenced
   since" holds on entry to a block on ALL incoming paths exactly when
   no path reaches the block from a root, or from just after an unhinted
   block that references the line, without crossing a block that hints
   it: the greatest must-fixpoint is the complement of this least
   may-fixpoint.  Only hinting blocks are ever queried, so the walk ends
   once all of them are reached.  Returns the generation: afterwards
   the line is hint-dead on entry to a hinting block [b] iff
   [s.seen.(b) <> gen]. *)
let must_invalidated t s k =
  let gen = fresh t s k in
  let remaining = ref (Array.length t.hinting.(k)) and top = ref 0 in
  let visit b =
    if s.seen.(b) <> gen then begin
      s.seen.(b) <- gen;
      if s.mark.(b) = gen then decr remaining
      else begin
        s.stack.(!top) <- b;
        incr top
      end
    end
  in
  Array.iter visit t.roots;
  Array.iter (fun r -> if s.mark.(r) <> gen then Array.iter visit t.succs.(r)) t.referencing.(k);
  while !top > 0 && !remaining > 0 do
    decr top;
    Array.iter visit t.succs.(s.stack.(!top))
  done;
  gen

(* Bounded forward search from the hint: can the victim line be
   re-referenced while fewer than [ways] distinct same-set lines have
   been touched?  States are explored in order of accumulated conflict
   count (bucket queue); a block is re-expanded only with a strictly
   smaller count, so the walk is O(blocks * ways).  Paths saturate (and
   are pruned) at [ways] conflicts — the victim's ideal eviction point —
   or when they cross another hint on the same line. *)
let find_harmful ~geometry t s ~start ~line ~k =
  let ways = geometry.Geometry.ways in
  let set = Geometry.set_of_line geometry line in
  let gen = fresh t s k in
  let best b = if s.seen.(b) = gen then s.best.(b) else max_int in
  let buckets = Array.make (max 1 ways) [] in
  let push block acc c =
    if c < ways && c < best block then begin
      s.seen.(block) <- gen;
      s.best.(block) <- c;
      buckets.(c) <- (block, acc) :: buckets.(c)
    end
  in
  Array.iter (fun b -> push b [] 0) t.succs.(start);
  let result = ref None in
  let c = ref 0 in
  while !result = None && !c < ways do
    match buckets.(!c) with
    | [] -> incr c
    | (block, acc) :: rest ->
      buckets.(!c) <- rest;
      if best block >= !c then begin
        (* Scan the block's lines in execution order, growing the
           conflict set as same-set lines appear before the victim. *)
        let acc = ref acc and count = ref !c and live = ref true in
        Array.iter
          (fun l ->
            if !live && !result = None then begin
              if l = line then result := Some (block, !count)
              else if
                !count < ways
                && Geometry.set_of_line geometry l = set
                && not (List.mem l !acc)
              then begin
                acc := l :: !acc;
                incr count;
                if !count >= ways then live := false
              end
            end)
          t.lines.(block);
        if !result = None && !live && s.mark.(block) <> gen then
          Array.iter (fun b -> push b !acc !count) t.succs.(block)
      end
  done;
  !result

let classify ~geometry ~entry blocks =
  match sites_of blocks with
  | [] -> []
  | sites ->
    let tracked = Array.of_list (List.map (fun s -> s.line) sites) in
    let liveness = Liveness.compute ~blocks ~tracked in
    let dominance = Dominance.of_blocks ~entry blocks in
    let t = tables blocks sites in
    let s = scratch (Array.length blocks) in
    (* Per site: its line's index and whether the line is hint-dead on
       every path into the site's block, one reachability walk per
       distinct line. *)
    let sites = Array.of_list sites in
    let line_of = Array.map (fun site -> Hashtbl.find t.line_index site.line) sites in
    let by_line = Array.make (Array.length t.hinting) [] in
    Array.iteri (fun i k -> by_line.(k) <- i :: by_line.(k)) line_of;
    let must = Array.make (Array.length sites) false in
    Array.iteri
      (fun k is ->
        let gen = must_invalidated t s k in
        List.iter (fun i -> must.(i) <- s.seen.(sites.(i).block) <> gen) is)
      by_line;
    let reason site k =
      match find_harmful ~geometry t s ~start:site.block ~line:site.line ~k with
      | Some (reuse_block, conflicts) -> Harmful { reuse_block; conflicts }
      | None ->
        if Liveness.live_out liveness ~block:site.block ~line:site.line then Safe_pressure
        else Safe_dead
    in
    Array.to_list
      (Array.mapi
         (fun i site ->
           let k = line_of.(i) in
           let duplicate =
             (* An earlier hint on the same line in the same block: the
                later one always finds the line gone. *)
             let h = blocks.(site.block).Basic_block.hints in
             let dup = ref false in
             for j = 0 to site.index - 1 do
               if Basic_block.hint_line h.(j) = site.line then dup := true
             done;
             !dup
           in
           let classification =
             if duplicate then Redundant { earlier = site.block }
             else if must.(i) && not (Array.mem site.line t.lines.(site.block)) then begin
               (* Already hint-dead on every path in; cite a dominating
                  hint. *)
               let witness =
                 Array.find_opt
                   (fun d -> d <> site.block && Dominance.dominates dominance ~dom:d site.block)
                   t.hinting.(k)
               in
               match witness with
               | Some earlier -> Redundant { earlier }
               | None ->
                 (* All-paths-invalidated but no single dominating
                    witness (e.g. both arms of a diamond hint the line):
                    still safe, fall through to the reachability
                    reasons. *)
                 reason site k
             end
             else reason site k
           in
           (site, classification))
         sites)

let classify_proved ~geometry ~entry blocks =
  let classified = classify ~geometry ~entry blocks in
  let abs = Abs_cache.analyze ~geometry ~entry blocks in
  List.map
    (fun (s, c) -> (s, c, Abs_cache.prove abs ~block:s.block ~index:s.index))
    classified

let disagreement c (v : Abs_cache.verdict) =
  match (c, v) with
  | Harmful _, (Abs_cache.Proved_dead | Abs_cache.Proved_pressure) -> true
  | (Safe_dead | Safe_pressure), Abs_cache.Proved_harmful -> true
  | _ -> false
