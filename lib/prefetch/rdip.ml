module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block
module Access = Ripple_cache.Access

let table_entries = 2048
let lines_per_signature = 6

let storage_bits ~table_entries ~lines_per_signature =
  table_entries * (16 + (lines_per_signature * 26))

let mix x =
  let x = x * 0x9E3779B1 in
  let x = x lxor (x lsr 16) in
  let x = x * 0xC2B2AE35 in
  x lxor (x lsr 13)

type entry = {
  mutable tag : int;
  lines : int array; (* -1 = free slot *)
  mutable cursor : int; (* round-robin replacement within the entry *)
}

let create ~program:_ () =
  let table =
    Array.init table_entries (fun _ ->
        { tag = -1; lines = Array.make lines_per_signature (-1); cursor = 0 })
  in
  (* The architectural call-stack context: a rolling hash of the call
     stack, pushed/popped in sync with calls and returns.  Depth-bounded
     like a real RAS. *)
  let stack = Array.make 32 0 in
  let depth = ref 0 in
  let signature = ref 0 in
  let resignature () =
    let s = ref 0 in
    for i = max 0 (!depth - 3) to !depth - 1 do
      s := mix (!s lxor stack.(i mod 32))
    done;
    signature := !s
  in
  let entry_of signature =
    let idx = mix signature land (table_entries - 1) in
    table.(idx)
  in
  let record_miss line =
    let e = entry_of !signature in
    if e.tag <> !signature then begin
      (* New owner: reset the line set. *)
      e.tag <- !signature;
      Array.fill e.lines 0 lines_per_signature (-1);
      e.cursor <- 0
    end;
    if not (Array.exists (fun l -> l = line) e.lines) then begin
      e.lines.(e.cursor) <- line;
      e.cursor <- (e.cursor + 1) mod lines_per_signature
    end
  in
  let prefetch_for_signature () =
    let e = entry_of !signature in
    if e.tag <> !signature then []
    else
      Array.fold_left
        (fun acc line -> if line >= 0 then Access.pack_prefetch ~line ~block:(-1) :: acc else acc)
        [] e.lines
  in
  let on_block (b : Basic_block.t) =
    match b.Basic_block.term with
    | Basic_block.Call { callee = _; return_to } | Basic_block.Indirect_call { return_to; _ } ->
      stack.(!depth mod 32) <- return_to;
      incr depth;
      resignature ();
      prefetch_for_signature ()
    | Basic_block.Return ->
      if !depth > 0 then decr depth;
      resignature ();
      prefetch_for_signature ()
    | Basic_block.Fallthrough _ | Basic_block.Jump _ | Basic_block.Cond _
    | Basic_block.Indirect _ | Basic_block.Halt ->
      []
  in
  {
    Prefetcher.name = "rdip";
    on_block;
    on_demand = (fun ~line:_ -> []);
    on_miss = Some record_miss;
  }
