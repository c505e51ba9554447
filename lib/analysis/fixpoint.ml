module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

type stats = { iterations : int; visits : int }

module Make (D : DOMAIN) = struct
  type result = { in_ : D.t option array; out : D.t option array; stats : stats }

  let solve ~n ~entries ~preds ~transfer () =
    let in_ = Array.make n None in
    let out = Array.make n None in
    (* Successor lists, inverted from [preds]: a change to out(v) must
       reach exactly the nodes that read it. *)
    let succs = Array.make n [] in
    Array.iteri
      (fun v ps ->
        List.iter (fun p -> if p >= 0 && p < n then succs.(p) <- v :: succs.(p)) ps)
      preds;
    Array.iteri (fun v l -> succs.(v) <- List.rev l) succs;
    let iterations = ref 0 and visits = ref 0 in
    (* Reverse postorder over [succs] from the entry nodes.  Processing
       a sweep in this order resolves every forward edge within the
       sweep, so a high-fan-in join point (e.g. the resume hub of a
       closed interprocedural graph) absorbs all of its predecessors'
       changes and is evaluated once per sweep, instead of once per
       arriving change as a FIFO worklist would. *)
    let order = Array.make n max_int in
    let visited = Array.make n false in
    let postctr = ref n in
    let stack = Stack.create () in
    let dfs_root r =
      if not visited.(r) then begin
        visited.(r) <- true;
        Stack.push (r, succs.(r)) stack;
        while not (Stack.is_empty stack) do
          let v, rest = Stack.pop stack in
          match rest with
          | [] ->
            decr postctr;
            order.(v) <- !postctr
          | s :: tl ->
            Stack.push (v, tl) stack;
            if s >= 0 && s < n && not visited.(s) then begin
              visited.(s) <- true;
              Stack.push (s, succs.(s)) stack
            end
        done
      end
    in
    List.iter (fun (v, _) -> if v >= 0 && v < n then dfs_root v) entries;
    let by_order = Array.init n (fun v -> v) in
    Array.sort (fun a b -> compare (order.(a), a) (order.(b), b)) by_order;
    let dirty = Array.make n false in
    (* Propagation-style chaotic iteration: a change to out(p) is
       joined directly into in(s) for each successor s, rather than
       re-folding *all* of s's predecessors on every refresh.  Join is
       monotone and idempotent and in(v) only ever grows, so the least
       fixpoint is the same, but a node with many predecessors (a join
       point, or the resume hub of a closed interprocedural graph) pays
       one join per changed edge instead of degree-many. *)
    let push v d =
      match in_.(v) with
      | None ->
        in_.(v) <- Some d;
        true
      | Some old ->
        let j = D.join old d in
        if D.equal old j then false
        else begin
          in_.(v) <- Some j;
          true
        end
    in
    (* Entry facts are joined into in(v) like any other edge; since
       in(v) never shrinks they are permanent lower bounds. *)
    List.iter
      (fun (v, d) -> if v >= 0 && v < n then if push v d then dirty.(v) <- true)
      entries;
    let pending = ref true in
    while !pending do
      pending := false;
      Array.iter
        (fun v ->
          if dirty.(v) then begin
            dirty.(v) <- false;
            incr iterations;
            match in_.(v) with
            | None -> ()
            | Some d ->
              incr visits;
              let o = transfer v d in
              let out_changed =
                match out.(v) with None -> true | Some old -> not (D.equal old o)
              in
              if out_changed then begin
                out.(v) <- Some o;
                List.iter (fun s -> if push s o then dirty.(s) <- true) succs.(v)
              end
          end)
        by_order;
      pending := Array.exists Fun.id dirty
    done;
    { in_; out; stats = { iterations = !iterations; visits = !visits } }
end
