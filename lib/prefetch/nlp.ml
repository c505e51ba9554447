module Access = Ripple_cache.Access

let filter_size = 4

let create ?(degree = 1) () =
  assert (degree >= 1);
  (* Last few trigger lines, to avoid re-issuing the same next-line
     request on every access within a line run. *)
  let recent = Array.make filter_size (-1) in
  let head = ref 0 in
  let seen line = Array.exists (fun l -> l = line) recent in
  let remember line =
    recent.(!head) <- line;
    head := (!head + 1) mod filter_size
  in
  let on_demand ~line =
    if not (seen line) then begin
      remember line;
      List.init degree (fun i -> Access.pack_prefetch ~line:(line + i + 1) ~block:(-1))
    end
    else []
  in
  let save () =
    let recent' = Array.copy recent in
    let head' = !head in
    fun () ->
      Array.blit recent' 0 recent 0 filter_size;
      head := head'
  in
  { Prefetcher.name = "nlp"; on_block = (fun _ -> []); on_demand; on_miss = None; save }
