type t = {
  name : string;
  on_block : Ripple_isa.Basic_block.t -> Ripple_cache.Access.packed list;
  on_demand : line:Ripple_isa.Addr.line -> Ripple_cache.Access.packed list;
  on_miss : (Ripple_isa.Addr.line -> unit) option;
}

let none =
  {
    name = "none";
    on_block = (fun _ -> []);
    on_demand = (fun ~line:_ -> []);
    on_miss = None;
  }
