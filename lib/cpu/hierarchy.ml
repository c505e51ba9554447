module Cache = Ripple_cache.Cache
module Access = Ripple_cache.Access
module Lru = Ripple_cache.Lru

type t = { l2 : Cache.t; l3 : Cache.t }
type served = L2 | L3 | Memory

let create (config : Config.t) =
  {
    l2 = Cache.create ~geometry:config.Config.l2 ~policy:Lru.make ();
    l3 = Cache.create ~geometry:config.Config.l3 ~policy:Lru.make ();
  }

let fetch t line =
  let acc = Access.pack_demand ~line ~block:(-1) in
  match Cache.access_packed t.l2 acc with
  | Cache.Hit -> L2
  | Cache.Miss -> begin
    match Cache.access_packed t.l3 acc with Cache.Hit -> L3 | Cache.Miss -> Memory
  end

let penalty config = function
  | L2 -> Config.miss_penalty config ~hit_level:`L2
  | L3 -> Config.miss_penalty config ~hit_level:`L3
  | Memory -> Config.miss_penalty config ~hit_level:`Memory
