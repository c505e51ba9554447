let mix x =
  let x = x * 0x9E3779B1 in
  x lxor (x lsr 16)

module Gshare = struct
  let history_bits = 12
  let table_bits = 12

  type t = {
    table : int array; (* 2-bit counters *)
    mutable history : int;
    mutable trained : int;
    mutable correct : int;
  }

  let create () = { table = Array.make (1 lsl table_bits) 2; history = 0; trained = 0; correct = 0 }

  let index t ~pc = (mix pc lxor t.history) land (Array.length t.table - 1)
  let predict t ~pc = t.table.(index t ~pc) >= 2

  let train t ~pc ~taken =
    let i = index t ~pc in
    let was_taken = t.table.(i) >= 2 in
    t.trained <- t.trained + 1;
    if was_taken = taken then t.correct <- t.correct + 1;
    t.table.(i) <- (if taken then min 3 (t.table.(i) + 1) else max 0 (t.table.(i) - 1));
    t.history <- ((t.history lsl 1) lor (if taken then 1 else 0)) land ((1 lsl history_bits) - 1)

  let accuracy t = if t.trained = 0 then 0.0 else Float.of_int t.correct /. Float.of_int t.trained

  let save t =
    let table' = Array.copy t.table in
    let history' = t.history and trained' = t.trained and correct' = t.correct in
    fun () ->
      Array.blit table' 0 t.table 0 (Array.length t.table);
      t.history <- history';
      t.trained <- trained';
      t.correct <- correct'
end

module Btb = struct
  type t = { tags : int array; targets : int array }

  let entries = 8192

  let create () = { tags = Array.make entries (-1); targets = Array.make entries 0 }

  let index t ~pc = mix pc land (Array.length t.tags - 1)

  let predict t ~pc =
    let i = index t ~pc in
    if t.tags.(i) = pc then Some t.targets.(i) else None

  (* Allocation-free variant for the runahead loop: [-1] = no entry. *)
  let predict_id t ~pc =
    let i = index t ~pc in
    if t.tags.(i) = pc then t.targets.(i) else -1

  let train t ~pc ~target =
    let i = index t ~pc in
    t.tags.(i) <- pc;
    t.targets.(i) <- target

  let save t =
    let tags' = Array.copy t.tags and targets' = Array.copy t.targets in
    fun () ->
      Array.blit tags' 0 t.tags 0 (Array.length t.tags);
      Array.blit targets' 0 t.targets 0 (Array.length t.targets)
end

module Ras = struct
  type t = { stack : int array; mutable top : int; mutable depth : int }

  let create ?(depth = 32) () = { stack = Array.make depth (-1); top = 0; depth = 0 }

  let push t x =
    t.stack.(t.top) <- x;
    t.top <- (t.top + 1) mod Array.length t.stack;
    if t.depth < Array.length t.stack then t.depth <- t.depth + 1

  let pop t =
    if t.depth = 0 then None
    else begin
      t.top <- (t.top + Array.length t.stack - 1) mod Array.length t.stack;
      t.depth <- t.depth - 1;
      Some t.stack.(t.top)
    end

  (* Allocation-free variant: [-1] when empty (pushed ids are >= 0). *)
  let pop_id t =
    if t.depth = 0 then -1
    else begin
      t.top <- (t.top + Array.length t.stack - 1) mod Array.length t.stack;
      t.depth <- t.depth - 1;
      t.stack.(t.top)
    end

  let copy_into ~src ~dst =
    assert (Array.length src.stack = Array.length dst.stack);
    Array.blit src.stack 0 dst.stack 0 (Array.length src.stack);
    dst.top <- src.top;
    dst.depth <- src.depth

  let save t =
    let stack' = Array.copy t.stack in
    let top' = t.top and depth' = t.depth in
    fun () ->
      Array.blit stack' 0 t.stack 0 (Array.length t.stack);
      t.top <- top';
      t.depth <- depth'
end
