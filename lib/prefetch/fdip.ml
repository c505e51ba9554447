module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block
module Access = Ripple_cache.Access
module Ring_queue = Ripple_util.Ring_queue

type internals = {
  gshare : Branch_pred.Gshare.t;
  btb : Branch_pred.Btb.t;
  mispredicts : unit -> int;
  issued : unit -> int;
}

let default_ftq_depth = 24
let default_issue_width = 2
let recent_filter_size = 8

(* Top-level recursion (not [Array.exists] with a capturing predicate,
   which would allocate a closure per queued line). *)
let rec array_mem_from arr x i =
  i < Array.length arr && (arr.(i) = x || array_mem_from arr x (i + 1))

let create_instrumented ?(ftq_depth = default_ftq_depth) ?(issue_width = default_issue_width)
    ~program () =
  let gshare = Branch_pred.Gshare.create () in
  let btb = Branch_pred.Btb.create () in
  let arch_ras = Branch_pred.Ras.create () in
  let runahead_ras = Branch_pred.Ras.create () in
  let ftq = Ring_queue.create ~capacity:ftq_depth ~dummy:(-1) in
  (* Predicted-but-not-yet-issued prefetch lines: drained [issue_width]
     per fetched block, modelling finite prefetch bandwidth. *)
  let pending = Ring_queue.create ~capacity:(ftq_depth * 4) ~dummy:(-1) in
  let frontier = ref (-1) in
  let prev = ref (-1) in
  let mispredicts = ref 0 in
  let issued = ref 0 in
  let recent = Array.make recent_filter_size (-1) in
  let recent_head = ref 0 in
  let remember_line line =
    recent.(!recent_head) <- line;
    recent_head := (!recent_head + 1) mod recent_filter_size
  in
  let recently_issued line = array_mem_from recent line 0 in
  (* Train predictors with the architecturally observed transition. *)
  let train (p : Basic_block.t) (now : Basic_block.t) =
    match p.Basic_block.term with
    | Basic_block.Cond { taken; fallthrough = _ } ->
      Branch_pred.Gshare.train gshare ~pc:p.Basic_block.id ~taken:(now.Basic_block.id = taken)
    | Basic_block.Indirect _ ->
      Branch_pred.Btb.train btb ~pc:p.Basic_block.id ~target:now.Basic_block.id
    | Basic_block.Indirect_call { callees = _; return_to } ->
      Branch_pred.Btb.train btb ~pc:p.Basic_block.id ~target:now.Basic_block.id;
      Branch_pred.Ras.push arch_ras return_to
    | Basic_block.Call { callee = _; return_to } -> Branch_pred.Ras.push arch_ras return_to
    | Basic_block.Return -> ignore (Branch_pred.Ras.pop arch_ras)
    | Basic_block.Fallthrough _ | Basic_block.Jump _ | Basic_block.Halt -> ()
  in
  (* One runahead step: predicted successor of [block], updating the
     speculative RAS.  [-1] = stall; an int sentinel rather than an
     option so the runahead loop allocates nothing per step. *)
  let predict_successor (b : Basic_block.t) =
    match b.Basic_block.term with
    | Basic_block.Fallthrough next | Basic_block.Jump next -> next
    | Basic_block.Cond { taken; fallthrough } ->
      if Branch_pred.Gshare.predict gshare ~pc:b.Basic_block.id then taken else fallthrough
    | Basic_block.Call { callee; return_to } ->
      Branch_pred.Ras.push runahead_ras return_to;
      callee
    | Basic_block.Indirect _ -> Branch_pred.Btb.predict_id btb ~pc:b.Basic_block.id
    | Basic_block.Indirect_call { callees = _; return_to } ->
      let target = Branch_pred.Btb.predict_id btb ~pc:b.Basic_block.id in
      if target >= 0 then Branch_pred.Ras.push runahead_ras return_to;
      target
    | Basic_block.Return -> Branch_pred.Ras.pop_id runahead_ras
    | Basic_block.Halt -> -1
  in
  (* The program's line table: [Basic_block.lines] allocates a fresh
     list per call, which the runahead path would otherwise do for every
     FTQ entry. *)
  let lines_per_block = Program.line_table program in
  let queue_block_lines id =
    let lines = lines_per_block.(id) in
    for i = 0 to Array.length lines - 1 do
      let line = Array.unsafe_get lines i in
      if not (recently_issued line) then begin
        remember_line line;
        ignore (Ring_queue.push pending line)
      end
    done
  in
  (* Extend the runahead path until the FTQ fills, prediction stalls, or
     prefetch-queue backpressure pauses it.  Defined with [let rec] at
     this level (not as an inner closure) so calling it per block
     allocates nothing. *)
  let rec refill () =
    if
      (not (Ring_queue.is_full ftq))
      && !frontier >= 0
      && Ring_queue.length pending < Ring_queue.capacity pending - 8
    then begin
      let next = predict_successor (Program.block program !frontier) in
      if next >= 0 then begin
        ignore (Ring_queue.push ftq next);
        frontier := next;
        queue_block_lines next;
        refill ()
      end
    end
  in
  (* Pops in FIFO order and conses in recursion order, so the issued
     list is already oldest-first — no [List.rev] copy. *)
  let rec drain n =
    if n = 0 then []
    else begin
      let line = Ring_queue.pop_or pending ~default:(-1) in
      if line < 0 then []
      else begin
        incr issued;
        Access.pack_prefetch ~line ~block:(-1) :: drain (n - 1)
      end
    end
  in
  let on_block (b : Basic_block.t) =
    if !prev >= 0 then train (Program.block program !prev) b;
    prev := b.Basic_block.id;
    let head = Ring_queue.peek_or ftq ~default:(-1) in
    if head = b.Basic_block.id then ignore (Ring_queue.pop_or ftq ~default:(-1))
    else begin
      if head >= 0 then begin
        (* Wrong path: flush and resynchronise the speculative state. *)
        incr mispredicts;
        Ring_queue.clear ftq;
        Ring_queue.clear pending
      end;
      Branch_pred.Ras.copy_into ~src:arch_ras ~dst:runahead_ras;
      frontier := b.Basic_block.id
    end;
    refill ();
    drain issue_width
  in
  let save () =
    let restore_gshare = Branch_pred.Gshare.save gshare in
    let restore_btb = Branch_pred.Btb.save btb in
    let restore_arch_ras = Branch_pred.Ras.save arch_ras in
    let restore_runahead_ras = Branch_pred.Ras.save runahead_ras in
    let ftq' = Ring_queue.copy ftq in
    let pending' = Ring_queue.copy pending in
    let frontier' = !frontier and prev' = !prev in
    let mispredicts' = !mispredicts and issued' = !issued in
    let recent' = Array.copy recent in
    let recent_head' = !recent_head in
    fun () ->
      restore_gshare ();
      restore_btb ();
      restore_arch_ras ();
      restore_runahead_ras ();
      Ring_queue.copy_into ~src:ftq' ~dst:ftq;
      Ring_queue.copy_into ~src:pending' ~dst:pending;
      frontier := frontier';
      prev := prev';
      mispredicts := mispredicts';
      issued := issued';
      Array.blit recent' 0 recent 0 recent_filter_size;
      recent_head := recent_head'
  in
  let prefetcher =
    {
      Prefetcher.name = "fdip";
      on_block;
      on_demand = (fun ~line:_ -> []);
      on_miss = None;
      save;
    }
  in
  let internals =
    { gshare; btb; mispredicts = (fun () -> !mispredicts); issued = (fun () -> !issued) }
  in
  (prefetcher, internals)

let create ?ftq_depth ~program () = fst (create_instrumented ?ftq_depth ~program ())
