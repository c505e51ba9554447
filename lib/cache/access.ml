module Addr = Ripple_isa.Addr

type kind = Demand | Prefetch
type t = { line : Addr.line; kind : kind; pc : int; block : int }

let demand ~line ~block = { line; kind = Demand; pc = line; block }
let prefetch ~line ~block = { line; kind = Prefetch; pc = line; block }
let is_demand t = t.kind = Demand
let is_prefetch t = t.kind = Prefetch

(* ------------------------------ packed ------------------------------ *)

type packed = int

let block_bits = 22
let max_packed_line = (1 lsl 40) - 1
let max_packed_block = (1 lsl block_bits) - 2
let block_mask = (1 lsl block_bits) - 1

let check ~line ~block =
  if line < 0 || line > max_packed_line then
    invalid_arg (Printf.sprintf "Access.pack: line %d out of range" line);
  if block < -1 || block > max_packed_block then
    invalid_arg (Printf.sprintf "Access.pack: block %d out of range" block)

let pack_demand ~line ~block =
  check ~line ~block;
  (line lsl (block_bits + 1)) lor ((block + 1) lsl 1)

let pack_prefetch ~line ~block =
  check ~line ~block;
  (line lsl (block_bits + 1)) lor ((block + 1) lsl 1) lor 1

let pack t =
  match t.kind with
  | Demand -> pack_demand ~line:t.line ~block:t.block
  | Prefetch -> pack_prefetch ~line:t.line ~block:t.block

let packed_line p = p lsr (block_bits + 1)
let packed_pc = packed_line
let packed_block p = ((p lsr 1) land block_mask) - 1
let packed_is_demand p = p land 1 = 0
let packed_is_prefetch p = p land 1 = 1
let packed_kind p = if packed_is_demand p then Demand else Prefetch

let unpack p =
  let line = packed_line p and block = packed_block p in
  { line; kind = packed_kind p; pc = line; block }
