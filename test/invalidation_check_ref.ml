(* Reference for Invalidation_check.classify: the classifier as it was
   before the per-line reachability tables.  [must_invalidated] is the
   dense round-robin must-analysis over every block, once per distinct
   hinted line; [find_harmful] allocates its per-block memo per hint and
   reads successors and lines straight off the blocks.  It reaches the
   same verdicts and witnesses by a route that shares none of the
   tables, so the property tests can compare classifications exactly. *)

module Basic_block = Ripple_isa.Basic_block
module Geometry = Ripple_cache.Geometry
module Cfg = Ripple_analysis.Cfg
module Dominance = Ripple_analysis.Dominance
module Liveness = Ripple_analysis.Liveness
module Icheck = Ripple_analysis.Invalidation_check

let sites_of blocks =
  let acc = ref [] in
  Array.iter
    (fun (b : Basic_block.t) ->
      Array.iteri
        (fun index h ->
          let demote = match h with Basic_block.Demote _ -> true | _ -> false in
          acc :=
            {
              Icheck.block = b.Basic_block.id;
              index;
              line = Basic_block.hint_line h;
              demote;
            }
            :: !acc)
        b.Basic_block.hints)
    blocks;
  List.rev !acc

let block_hints_line (b : Basic_block.t) line =
  Array.exists (fun h -> Basic_block.hint_line h = line) b.Basic_block.hints

(* Forward must-analysis for one hinted line: at which blocks does "the
   line has been hinted away and not referenced since" hold on ALL
   incoming paths?  Optimistic initialization (true everywhere except
   roots), decreasing fixpoint. *)
let must_invalidated ~blocks ~preds line =
  let n = Array.length blocks in
  let refs = Array.init n (fun i -> List.mem line (Basic_block.lines blocks.(i))) in
  let hinted = Array.init n (fun i -> block_hints_line blocks.(i) line) in
  let inv_in = Array.make n true in
  Array.iteri (fun i ps -> if ps = [] then inv_in.(i) <- false) preds;
  let out i = hinted.(i) || (inv_in.(i) && not refs.(i)) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if inv_in.(i) && preds.(i) <> [] then begin
        let v = List.for_all out preds.(i) in
        if not v then begin
          inv_in.(i) <- false;
          changed := true
        end
      end
    done
  done;
  (inv_in, refs)

(* Bounded forward search from the hint: can the victim line be
   re-referenced while fewer than [ways] distinct same-set lines have
   been touched?  States are explored in order of accumulated conflict
   count (bucket queue); a block is re-expanded only with a strictly
   smaller count, so the walk is O(blocks * ways).  Paths saturate (and
   are pruned) at [ways] conflicts — the victim's ideal eviction point —
   or when they cross another hint on the same line. *)
let find_harmful ~geometry ~blocks ~start ~line =
  let ways = geometry.Geometry.ways in
  let n = Array.length blocks in
  let set = Geometry.set_of_line geometry line in
  let best = Array.make n max_int in
  let buckets = Array.make (max 1 ways) [] in
  let push block acc c =
    if block >= 0 && block < n && c < ways && c < best.(block) then begin
      best.(block) <- c;
      buckets.(c) <- (block, acc) :: buckets.(c)
    end
  in
  List.iter (fun s -> push s [] 0) (Cfg.flow_successors blocks.(start));
  let result = ref None in
  let c = ref 0 in
  while !result = None && !c < ways do
    match buckets.(!c) with
    | [] -> incr c
    | (block, acc) :: rest ->
      buckets.(!c) <- rest;
      if best.(block) >= !c then begin
        (* Scan the block's lines in execution order, growing the
           conflict set as same-set lines appear before the victim. *)
        let acc = ref acc and count = ref !c and live = ref true in
        List.iter
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
          (Basic_block.lines blocks.(block));
        if !result = None && !live && not (block_hints_line blocks.(block) line) then
          List.iter (fun s -> push s !acc !count) (Cfg.flow_successors blocks.(block))
      end
  done;
  !result

let classify ~geometry ~entry blocks =
  let sites = sites_of blocks in
  let tracked = Array.of_list (List.map (fun (s : Icheck.site) -> s.Icheck.line) sites) in
  let liveness = Liveness.compute ~blocks ~tracked in
  let dominance = Dominance.of_blocks ~entry blocks in
  let preds = Cfg.predecessors blocks in
  (* Per distinct line: must-invalidated state and the hinting blocks. *)
  let by_line = Hashtbl.create 64 in
  List.iter
    (fun (s : Icheck.site) ->
      if not (Hashtbl.mem by_line s.Icheck.line) then
        Hashtbl.add by_line s.Icheck.line (must_invalidated ~blocks ~preds s.Icheck.line))
    sites;
  let hint_blocks line =
    List.filter_map
      (fun (s : Icheck.site) -> if s.Icheck.line = line then Some s.Icheck.block else None)
      sites
  in
  List.map
    (fun (s : Icheck.site) ->
      let inv_in, refs = Hashtbl.find by_line s.Icheck.line in
      let duplicate =
        (* An earlier hint on the same line in the same block: the later
           one always finds the line gone. *)
        let h = blocks.(s.Icheck.block).Basic_block.hints in
        let dup = ref false in
        for i = 0 to s.Icheck.index - 1 do
          if Basic_block.hint_line h.(i) = s.Icheck.line then dup := true
        done;
        !dup
      in
      let classification =
        if duplicate then Icheck.Redundant { earlier = s.Icheck.block }
        else if inv_in.(s.Icheck.block) && not refs.(s.Icheck.block) then begin
          (* Already hint-dead on every path in; cite a dominating hint. *)
          match
            List.find_opt
              (fun d -> d <> s.Icheck.block && Dominance.dominates dominance ~dom:d s.Icheck.block)
              (hint_blocks s.Icheck.line)
          with
          | Some earlier -> Icheck.Redundant { earlier }
          | None -> (
            (* All-paths-invalidated but no single dominating witness
               (e.g. both arms of a diamond hint the line): still safe,
               fall through to the reachability reasons. *)
            match
              find_harmful ~geometry ~blocks ~start:s.Icheck.block ~line:s.Icheck.line
            with
            | Some (reuse_block, conflicts) -> Icheck.Harmful { reuse_block; conflicts }
            | None ->
              if Liveness.live_out liveness ~block:s.Icheck.block ~line:s.Icheck.line then
                Icheck.Safe_pressure
              else Icheck.Safe_dead)
        end
        else begin
          match find_harmful ~geometry ~blocks ~start:s.Icheck.block ~line:s.Icheck.line with
          | Some (reuse_block, conflicts) -> Icheck.Harmful { reuse_block; conflicts }
          | None ->
            if Liveness.live_out liveness ~block:s.Icheck.block ~line:s.Icheck.line then
              Icheck.Safe_pressure
            else Icheck.Safe_dead
        end
      in
      (s, classification))
    sites
