type t = {
  entry : int;
  idom : int array;  (* idom.(n) = immediate dominator; entry maps to itself; -1 unreachable *)
}

(* Iterative depth-first postorder with an explicit stack: graphs here
   are whole programs (tens of thousands of blocks), far beyond what the
   OCaml stack tolerates recursively. *)
let postorder ~n ~entry ~succs =
  let order = ref [] in
  let state = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  if entry >= 0 && entry < n then begin
    let stack = Stack.create () in
    Stack.push (entry, succs entry) stack;
    state.(entry) <- 1;
    while not (Stack.is_empty stack) do
      let node, pending = Stack.pop stack in
      match pending with
      | [] ->
        state.(node) <- 2;
        order := node :: !order
      | s :: rest ->
        Stack.push (node, rest) stack;
        if s >= 0 && s < n && state.(s) = 0 then begin
          state.(s) <- 1;
          Stack.push (s, succs s) stack
        end
    done
  end;
  !order (* head = last finished = reverse postorder start is entry *)

let compute ~n ~entry ~succs =
  let idom = Array.make n (-1) in
  if entry >= 0 && entry < n then begin
    (* Reverse postorder (entry first) and postorder numbering. *)
    let rpo = Array.of_list (postorder ~n ~entry ~succs) in
    let po_num = Array.make n (-1) in
    let m = Array.length rpo in
    Array.iteri (fun i node -> po_num.(node) <- m - 1 - i) rpo;
    (* Predecessor lists restricted to reachable nodes. *)
    let preds = Array.make n [] in
    Array.iter
      (fun u ->
        List.iter
          (fun v -> if v >= 0 && v < n && po_num.(v) >= 0 then preds.(v) <- u :: preds.(v))
          (succs u))
      rpo;
    let intersect b1 b2 =
      let f1 = ref b1 and f2 = ref b2 in
      while !f1 <> !f2 do
        while po_num.(!f1) < po_num.(!f2) do
          f1 := idom.(!f1)
        done;
        while po_num.(!f2) < po_num.(!f1) do
          f2 := idom.(!f2)
        done
      done;
      !f1
    in
    idom.(entry) <- entry;
    let changed = ref true in
    while !changed do
      changed := false;
      (* Skip the entry (rpo.(0)). *)
      for i = 1 to m - 1 do
        let b = rpo.(i) in
        let new_idom = ref (-1) in
        List.iter
          (fun p ->
            if idom.(p) >= 0 then
              new_idom := if !new_idom < 0 then p else intersect p !new_idom)
          preds.(b);
        if !new_idom >= 0 && idom.(b) <> !new_idom then begin
          idom.(b) <- !new_idom;
          changed := true
        end
      done
    done
  end;
  { entry; idom }

let idom t n =
  if n < 0 || n >= Array.length t.idom then None
  else if t.idom.(n) < 0 || n = t.entry then None
  else Some t.idom.(n)

let is_reachable t n = n >= 0 && n < Array.length t.idom && t.idom.(n) >= 0

let dominates t ~dom n =
  if not (is_reachable t n && is_reachable t dom) then false
  else begin
    let rec walk x = x = dom || (x <> t.entry && walk t.idom.(x)) in
    walk n
  end

let of_blocks ~entry blocks =
  let n = Array.length blocks in
  compute ~n ~entry ~succs:(fun i -> Cfg.flow_successors blocks.(i))

