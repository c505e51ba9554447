module Prng = Ripple_util.Prng

let make ~seed ~sets ~ways =
  let rng = Prng.create ~seed in
  (* demoted.(set) is a way forced to be the next victim, or -1. *)
  let demoted = Array.make sets (-1) in
  let victim ~set =
    if demoted.(set) >= 0 then begin
      let way = demoted.(set) in
      demoted.(set) <- -1;
      way
    end
    else Prng.int rng ways
  in
  {
    Policy.name = "random";
    on_hit = Policy.nop_access;
    on_fill =
      (fun ~set ~way _ -> if demoted.(set) = way then demoted.(set) <- -1);
    fill_decision = Policy.nop_fill_decision;
    may_bypass = false;
    victim;
    on_eviction = Policy.nop_evict;
    on_invalidate = (fun ~set ~way -> if demoted.(set) = way then demoted.(set) <- -1);
    demote = (fun ~set ~way -> demoted.(set) <- way);
    storage_bits = 0;
    duel = None;
  }
