type privilege = User | Kernel

type terminator =
  | Fallthrough of int
  | Jump of int
  | Cond of { taken : int; fallthrough : int }
  | Indirect of int array
  | Call of { callee : int; return_to : int }
  | Indirect_call of { callees : int array; return_to : int }
  | Return
  | Halt

type hint = Invalidate of Addr.line | Demote of Addr.line

let hint_line = function Invalidate l | Demote l -> l

(* lea reg, [line] + cldemote [reg]: 8 bytes, counted as one macro
   instruction for overhead purposes. *)
let hint_bytes = 8

type t = {
  id : int;
  addr : Addr.t;
  bytes : int;
  n_instrs : int;
  privilege : privilege;
  jit : bool;
  term : terminator;
  hints : hint array;
}

let total_bytes b = b.bytes + (Array.length b.hints * hint_bytes)
let total_instrs b = b.n_instrs + Array.length b.hints
let lines b = Addr.lines_of_range b.addr ~bytes:b.bytes

let successors b =
  match b.term with
  | Fallthrough next | Jump next -> [ next ]
  | Cond { taken; fallthrough } -> [ taken; fallthrough ]
  | Indirect targets -> Array.to_list targets
  | Call { callee; return_to = _ } -> [ callee ]
  | Indirect_call { callees; return_to = _ } -> Array.to_list callees
  | Return | Halt -> []

let is_conditional b = match b.term with Cond _ -> true | _ -> false

let is_indirect b =
  match b.term with Indirect _ | Indirect_call _ | Return -> true | _ -> false

