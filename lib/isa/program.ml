type t = {
  entry : int;
  blocks : Basic_block.t array;
  aligned : bool array;
  by_addr : int array;
      (* block ids in address order, for block_at lookups; computed once
         in [v] and shared by [with_hints] and [relocate], which keep
         every block's address or shift them all alike *)
}

let user_base = 0x400000
let kernel_base = 0x4000_0000
let block_alignment = 16

let align_up addr alignment =
  let m = addr mod alignment in
  if m = 0 then addr else addr + alignment - m

(* Lay out blocks in id order: user text from user_base, kernel text from
   kernel_base.  Returns fresh block records with addr set. *)
let layout blocks aligned =
  let user_cursor = ref user_base and kernel_cursor = ref kernel_base in
  Array.mapi
    (fun i (b : Basic_block.t) ->
      let cursor =
        match b.Basic_block.privilege with
        | Basic_block.User -> user_cursor
        | Basic_block.Kernel -> kernel_cursor
      in
      if aligned.(i) then cursor := align_up !cursor block_alignment;
      let addr = !cursor in
      cursor := !cursor + b.Basic_block.bytes;
      { b with Basic_block.addr })
    blocks

let sort_by_addr (blocks : Basic_block.t array) =
  let ids = Array.init (Array.length blocks) Fun.id in
  Array.sort (fun a b -> compare blocks.(a).Basic_block.addr blocks.(b).Basic_block.addr) ids;
  ids

let v ~entry blocks ~aligned =
  assert (Array.length blocks = Array.length aligned);
  Array.iteri (fun i (b : Basic_block.t) -> assert (b.Basic_block.id = i)) blocks;
  assert (entry >= 0 && entry < Array.length blocks);
  let blocks = layout blocks aligned in
  { entry; blocks; aligned; by_addr = sort_by_addr blocks }

let entry t = t.entry
let n_blocks t = Array.length t.blocks
let block t i = t.blocks.(i)
let blocks t = t.blocks
let aligned t = Array.copy t.aligned
let iter f t = Array.iter f t.blocks

let block_at t addr =
  let a = t.by_addr in
  let n = Array.length a in
  (* Greatest block with start <= addr, then check containment. *)
  let rec search lo hi =
    if lo >= hi then lo - 1
    else begin
      let mid = (lo + hi) / 2 in
      if t.blocks.(a.(mid)).Basic_block.addr <= addr then search (mid + 1) hi else search lo mid
    end
  in
  let i = search 0 n in
  if i < 0 then None
  else begin
    let b = t.blocks.(a.(i)) in
    if addr < b.Basic_block.addr + b.Basic_block.bytes then Some b else None
  end

let static_bytes t = Array.fold_left (fun acc b -> acc + Basic_block.total_bytes b) 0 t.blocks

let static_instrs t =
  Array.fold_left (fun acc b -> acc + Basic_block.total_instrs b) 0 t.blocks

let static_hints t =
  Array.fold_left (fun acc (b : Basic_block.t) -> acc + Array.length b.Basic_block.hints) 0 t.blocks

let footprint_lines t =
  let lines = Hashtbl.create 4096 in
  iter (fun b -> List.iter (fun l -> Hashtbl.replace lines l ()) (Basic_block.lines b)) t;
  Hashtbl.length lines

let with_hints t ~hints =
  assert (Array.length hints = n_blocks t);
  let rewritten =
    Array.mapi
      (fun i (b : Basic_block.t) -> { b with Basic_block.hints = Array.of_list hints.(i) })
      t.blocks
  in
  (* Injection is layout-preserving: hints are modelled as occupying the
     padding that follows their block (Basic_block.lines), so addresses
     are unchanged and the remap is the identity. *)
  ({ t with blocks = rewritten }, fun addr -> addr)

(* FNV-1a over everything injection coordinates depend on: block count,
   entry, and each block's address/size/shape.  Hints are deliberately
   excluded so the fingerprint of an instrumented binary matches the
   binary it was derived from (injection is layout-preserving). *)
let layout_fingerprint t =
  let h = ref 0x811c9dc5 in
  let mix v =
    (* Fold the value in byte-wise so every bit participates; same
       32-bit FNV constants as Ripple_exp.Spec.prng_seed, masked to stay
       stable across OCaml versions and word sizes. *)
    let v = ref v in
    for _ = 0 to 7 do
      h := (!h lxor (!v land 0xFF)) * 0x01000193 land 0x3FFFFFFF;
      v := !v lsr 8
    done
  in
  mix t.entry;
  mix (Array.length t.blocks);
  Array.iter
    (fun (b : Basic_block.t) ->
      mix b.Basic_block.addr;
      mix b.Basic_block.bytes;
      mix b.Basic_block.n_instrs;
      mix
        ((match b.Basic_block.privilege with Basic_block.User -> 0 | Basic_block.Kernel -> 1)
        lor if b.Basic_block.jit then 2 else 0))
    t.blocks;
  !h

let relocate t ~line_shift =
  let delta = line_shift * Addr.line_size in
  let blocks =
    Array.map
      (fun (b : Basic_block.t) ->
        let addr = b.Basic_block.addr + delta in
        assert (addr >= 0);
        { b with Basic_block.addr })
      t.blocks
  in
  { t with blocks }

let pp_summary fmt t =
  Format.fprintf fmt "@[program: %d blocks, %d bytes, %d instrs, %d hint(s), %d lines@]"
    (n_blocks t) (static_bytes t) (static_instrs t) (static_hints t) (footprint_lines t)
