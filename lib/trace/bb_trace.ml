module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block
module Access = Ripple_cache.Access
module Access_stream = Ripple_cache.Access_stream

type t = int array

let n_instrs program trace =
  let per_block =
    Array.map Basic_block.total_instrs (Program.blocks program)
  in
  Array.fold_left (fun acc id -> acc + per_block.(id)) 0 trace

let n_hint_instrs program trace =
  let per_block =
    Array.map (fun (b : Basic_block.t) -> Array.length b.Basic_block.hints) (Program.blocks program)
  in
  Array.fold_left (fun acc id -> acc + per_block.(id)) 0 trace

let exec_counts program trace =
  let counts = Array.make (Program.n_blocks program) 0 in
  Array.iter (fun id -> counts.(id) <- counts.(id) + 1) trace;
  counts

let demand_stream program trace =
  (* Pre-pack each block's line accesses once; expanding the trace is
     then a flat copy of ints into the stream builder — no per-access
     allocation, and peak memory is one word per access. *)
  let packed_per_block =
    Array.mapi
      (fun block lines -> Array.map (fun line -> Access.pack_demand ~line ~block) lines)
      (Program.line_table program)
  in
  let builder = Access_stream.Builder.create () in
  Array.iter
    (fun id ->
      let packed = packed_per_block.(id) in
      for i = 0 to Array.length packed - 1 do
        Access_stream.Builder.add builder (Array.unsafe_get packed i)
      done)
    trace;
  Access_stream.Builder.finish builder

let illegal_transitions program trace =
  let n_blocks = Program.n_blocks program in
  let illegal = ref 0 in
  let n = Array.length trace in
  for i = 0 to n - 2 do
    let id = trace.(i) and next = trace.(i + 1) in
    let bad =
      if id < 0 || id >= n_blocks || next < 0 || next >= n_blocks then true
      else begin
        match (Program.block program id).Basic_block.term with
        | Basic_block.Fallthrough expected | Basic_block.Jump expected -> next <> expected
        | Basic_block.Call { callee; return_to = _ } -> next <> callee
        | Basic_block.Cond { taken; fallthrough } -> next <> taken && next <> fallthrough
        | Basic_block.Indirect targets ->
          not (Array.exists (fun t -> t = next) targets)
        | Basic_block.Indirect_call { callees; return_to = _ } ->
          not (Array.exists (fun t -> t = next) callees)
        | Basic_block.Return -> false
        | Basic_block.Halt -> true
      end
    in
    if bad then incr illegal
  done;
  !illegal

let drift program trace =
  let n = Array.length trace in
  if n < 2 then 0.0
  else Float.of_int (illegal_transitions program trace) /. Float.of_int (n - 1)

let kernel_fraction program trace =
  if Array.length trace = 0 then 0.0
  else begin
    let kernel = ref 0 in
    Array.iter
      (fun id ->
        if (Program.block program id).Basic_block.privilege = Basic_block.Kernel then incr kernel)
      trace;
    Float.of_int !kernel /. Float.of_int (Array.length trace)
  end
