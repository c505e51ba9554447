type fill_decision = [ `Install | `Bypass ]

type t = {
  name : string;
  on_hit : set:int -> way:int -> Access.packed -> unit;
  on_fill : set:int -> way:int -> Access.packed -> unit;
  fill_decision : set:int -> Access.packed -> fill_decision;
  may_bypass : bool;
  victim : set:int -> int;
  on_eviction : set:int -> way:int -> line:Ripple_isa.Addr.line -> unit;
  on_invalidate : set:int -> way:int -> unit;
  demote : set:int -> way:int -> unit;
  storage_bits : int;
  duel : Dueling.t option;
}

type factory = sets:int -> ways:int -> t

let nop_access ~set:_ ~way:_ _ = ()
let nop_way ~set:_ ~way:_ = ()
let nop_evict ~set:_ ~way:_ ~line:_ = ()
let nop_fill_decision ~set:_ _ = `Install
