module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program

let flow_successors (b : Basic_block.t) =
  match b.Basic_block.term with
  | Basic_block.Call { callee; return_to } -> [ callee; return_to ]
  | Basic_block.Indirect_call { callees; return_to } -> return_to :: Array.to_list callees
  | _ -> Basic_block.successors b

let reachable ~entry blocks =
  let n = Array.length blocks in
  let seen = Array.make n false in
  let stack = Stack.create () in
  if entry >= 0 && entry < n then Stack.push entry stack;
  while not (Stack.is_empty stack) do
    let i = Stack.pop stack in
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter
        (fun s -> if s >= 0 && s < n && not seen.(s) then Stack.push s stack)
        (flow_successors blocks.(i))
    end
  done;
  seen

(* ---------------------------- structural ---------------------------- *)

let check_extents findings (b : Basic_block.t) =
  if b.Basic_block.bytes <= 0 || b.Basic_block.n_instrs <= 0 then
    findings :=
      Finding.v Finding.Error Finding.Nonpositive_extent ~block:b.Basic_block.id
        (Printf.sprintf "block has %d bytes / %d instructions; both must be positive"
           b.Basic_block.bytes b.Basic_block.n_instrs)
      :: !findings

let check_edges findings n (b : Basic_block.t) =
  let dangling = ref false in
  List.iter
    (fun s ->
      if s < 0 || s >= n then begin
        dangling := true;
        findings :=
          Finding.v Finding.Error Finding.Dangling_successor ~block:b.Basic_block.id
            (Printf.sprintf "successor %d outside [0, %d)" s n)
          :: !findings
      end)
    (Basic_block.successors b);
  (match b.Basic_block.term with
  | Basic_block.Call { return_to; _ } | Basic_block.Indirect_call { return_to; _ } ->
    if return_to < 0 || return_to >= n then begin
      dangling := true;
      findings :=
        Finding.v Finding.Error Finding.Dangling_return ~block:b.Basic_block.id
          (Printf.sprintf "return_to %d outside [0, %d)" return_to n)
        :: !findings
    end
  | _ -> ());
  !dangling

let check_region findings (b : Basic_block.t) =
  let addr = b.Basic_block.addr and stop = b.Basic_block.addr + b.Basic_block.bytes in
  let ok =
    match b.Basic_block.privilege with
    | Basic_block.User -> addr >= Program.user_base && stop <= Program.kernel_base
    | Basic_block.Kernel -> addr >= Program.kernel_base
  in
  if not ok then
    findings :=
      Finding.v Finding.Error Finding.Region_violation ~block:b.Basic_block.id
        (Printf.sprintf "%s block spans [0x%x, 0x%x) outside its text region"
           (match b.Basic_block.privilege with Basic_block.User -> "user" | _ -> "kernel")
           addr stop)
      :: !findings

let check_overlaps findings blocks =
  let by_addr = Array.copy blocks in
  Array.sort
    (fun (a : Basic_block.t) b -> compare a.Basic_block.addr b.Basic_block.addr)
    by_addr;
  for i = 0 to Array.length by_addr - 2 do
    let a = by_addr.(i) and b = by_addr.(i + 1) in
    if a.Basic_block.addr + a.Basic_block.bytes > b.Basic_block.addr then
      findings :=
        Finding.v Finding.Error Finding.Overlapping_blocks ~block:b.Basic_block.id
          (Printf.sprintf "byte range overlaps block %d ([0x%x, 0x%x) vs start 0x%x)"
             a.Basic_block.id a.Basic_block.addr
             (a.Basic_block.addr + a.Basic_block.bytes)
             b.Basic_block.addr)
        :: !findings
  done

let check_alignment findings aligned (b : Basic_block.t) =
  let i = b.Basic_block.id in
  if
    i >= 0
    && i < Array.length aligned
    && aligned.(i)
    && b.Basic_block.addr mod Program.block_alignment <> 0
  then
    findings :=
      Finding.v Finding.Error Finding.Misaligned_block ~block:i
        (Printf.sprintf "alignment requested but 0x%x is not %d-byte aligned"
           b.Basic_block.addr Program.block_alignment)
      :: !findings

let check ~entry ?aligned blocks =
  let n = Array.length blocks in
  let findings = ref [] in
  let entry_ok = entry >= 0 && entry < n in
  if not entry_ok then
    findings :=
      Finding.v Finding.Error Finding.Entry_out_of_range
        (Printf.sprintf "entry %d outside [0, %d)" entry n)
      :: !findings;
  let any_dangling = ref false in
  Array.iteri
    (fun i (b : Basic_block.t) ->
      if b.Basic_block.id <> i then
        findings :=
          Finding.v Finding.Error Finding.Id_mismatch ~block:i
            (Printf.sprintf "blocks.(%d) carries id %d" i b.Basic_block.id)
          :: !findings;
      check_extents findings b;
      if check_edges findings n b then any_dangling := true;
      check_region findings b;
      match aligned with Some a -> check_alignment findings a b | None -> ())
    blocks;
  check_overlaps findings blocks;
  (* Orphan detection is only meaningful on a graph whose edges resolve.
     Orphans are [Info]: the CFG generator legitimately emits landing
     blocks that no static edge reaches (e.g. after an indirect jump
     whose target table never selects them), so they are an observation
     about the binary, not a defect in it. *)
  if entry_ok && not !any_dangling then begin
    let seen = reachable ~entry blocks in
    Array.iteri
      (fun i ok ->
        if not ok then
          findings :=
            Finding.v Finding.Info Finding.Unreachable_block ~block:i
              "unreachable from the entry block (orphan)"
            :: !findings)
      seen
  end;
  List.rev !findings
