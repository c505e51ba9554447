module Prng = Ripple_util.Prng

let make ~seed ~sets ~ways =
  let st = Policy.State.create () in
  let rng = Prng.create ~seed in
  Policy.State.custom st (fun () ->
      let rng' = Prng.copy rng in
      fun () -> Prng.copy_into ~src:rng' ~dst:rng);
  (* demoted.(set) is a way forced to be the next victim, or -1. *)
  let demoted = Policy.State.array st sets (-1) in
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
    save = Policy.State.save st;
    storage_bits = 0;
    duel = None;
  }
