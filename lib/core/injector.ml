module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block
module Addr = Ripple_isa.Addr

type mode = Invalidate | Demote

type placement = { block : int; line : Addr.line; probability : float; windows : int }

type stats = {
  injected : int;
  skipped_jit : int;
  skipped_cap : int;
  blocks_touched : int;
  placements : placement list;
}

let default_max_hints_per_block = 3

let inject ?(mode = Invalidate) ?(skip_jit = true) ?(max_hints_per_block = default_max_hints_per_block)
    ~program ~decisions () =
  let n = Program.n_blocks program in
  let per_block = Array.make n [] in
  let skipped_jit = ref 0 in
  List.iter
    (fun (d : Cue_block.decision) ->
      let b = Program.block program d.Cue_block.cue_block in
      if skip_jit && b.Basic_block.jit then incr skipped_jit
      else per_block.(d.Cue_block.cue_block) <- d :: per_block.(d.Cue_block.cue_block))
    decisions;
  let skipped_cap = ref 0 in
  let injected = ref 0 in
  let blocks_touched = ref 0 in
  let kept_of ds =
    let sorted =
      List.sort
        (fun (a : Cue_block.decision) b -> compare b.Cue_block.probability a.Cue_block.probability)
        ds
    in
    let kept, dropped =
      List.filteri (fun i _ -> i < max_hints_per_block) sorted,
      max 0 (List.length sorted - max_hints_per_block)
    in
    skipped_cap := !skipped_cap + dropped;
    kept
  in
  let kept_decisions = Array.map kept_of per_block in
  let victim_lines =
    Array.map (List.map (fun (d : Cue_block.decision) -> d.Cue_block.victim)) kept_decisions
  in
  Array.iter
    (fun vs ->
      if vs <> [] then begin
        incr blocks_touched;
        injected := !injected + List.length vs
      end)
    victim_lines;
  let as_hint line = match mode with Invalidate -> Basic_block.Invalidate line | Demote -> Basic_block.Demote line in
  (* Injection is layout-preserving (Program.with_hints): hints sit in
     the padding after their block, so the victim lines the profile
     named are already the operands of the instrumented layout and one
     rewrite suffices. *)
  let instrumented, remap =
    Program.with_hints program ~hints:(Array.map (List.map as_hint) victim_lines)
  in
  (* Provenance, in injection order (block id, then the within-block
     probability-descending order the hints were materialised in). *)
  let placements =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun block ds ->
              List.map
                (fun (d : Cue_block.decision) ->
                  {
                    block;
                    line = d.Cue_block.victim;
                    probability = d.Cue_block.probability;
                    windows = d.Cue_block.windows;
                  })
                ds)
            kept_decisions))
  in
  ( instrumented,
    remap,
    {
      injected = !injected;
      skipped_jit = !skipped_jit;
      skipped_cap = !skipped_cap;
      blocks_touched = !blocks_touched;
      placements;
    } )
