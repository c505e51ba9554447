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
  save : unit -> unit -> unit;
  storage_bits : int;
  duel : Dueling.t option;
}

type factory = sets:int -> ways:int -> t

let nop_access ~set:_ ~way:_ _ = ()
let nop_way ~set:_ ~way:_ = ()
let nop_evict ~set:_ ~way:_ ~line:_ = ()
let nop_save () () = ()
let nop_fill_decision ~set:_ _ = `Install

module State = struct
  type t = { mutable savers : (unit -> unit -> unit) list }

  let create () = { savers = [] }
  let custom t save = t.savers <- save :: t.savers

  let array t n v =
    let a = Array.make n v in
    custom t (fun () ->
        let a' = Array.copy a in
        fun () -> Array.blit a' 0 a 0 n);
    a

  let ref t v =
    let r = Stdlib.ref v in
    custom t (fun () ->
        let v = !r in
        fun () -> r := v);
    r

  let save t () =
    let restores = List.map (fun save -> save ()) t.savers in
    fun () -> List.iter (fun restore -> restore ()) restores
end
