type proto = {
  mutable term : Basic_block.terminator;
  bytes : int;
  n_instrs : int;
  privilege : Basic_block.privilege;
  jit : bool;
  aligned : bool;
}

type t = { mutable protos : proto array; mutable count : int }

let create () = { protos = [||]; count = 0 }

let grow t =
  let capacity = Array.length t.protos in
  if t.count = capacity then begin
    let fresh =
      Array.make
        (max 16 (2 * capacity))
        {
          term = Basic_block.Halt;
          bytes = 1;
          n_instrs = 1;
          privilege = Basic_block.User;
          jit = false;
          aligned = false;
        }
    in
    Array.blit t.protos 0 fresh 0 capacity;
    t.protos <- fresh
  end

let block t ?(privilege = Basic_block.User) ?(jit = false) ?(aligned = false) ?n_instrs ~bytes
    ~term () =
  assert (bytes > 0);
  let n_instrs = match n_instrs with Some n -> n | None -> max 1 (bytes / 4) in
  grow t;
  let id = t.count in
  t.protos.(id) <- { term; bytes; n_instrs; privilege; jit; aligned };
  t.count <- t.count + 1;
  id

let set_term t id term =
  assert (id >= 0 && id < t.count);
  t.protos.(id).term <- term

let straight_line t ~bytes_per_block ~n () =
  assert (n > 0);
  let first = t.count in
  for i = 0 to n - 1 do
    let term =
      if i = n - 1 then Basic_block.Halt else Basic_block.Fallthrough (t.count + 1)
    in
    ignore (block t ~bytes:bytes_per_block ~term ())
  done;
  (first, t.count - 1)

let check_target n id = assert (id >= 0 && id < n)

let check_term n = function
  | Basic_block.Fallthrough target | Basic_block.Jump target -> check_target n target
  | Basic_block.Cond { taken; fallthrough } ->
    check_target n taken;
    check_target n fallthrough
  | Basic_block.Indirect targets -> Array.iter (check_target n) targets
  | Basic_block.Call { callee; return_to } ->
    check_target n callee;
    check_target n return_to
  | Basic_block.Indirect_call { callees; return_to } ->
    Array.iter (check_target n) callees;
    check_target n return_to
  | Basic_block.Return | Basic_block.Halt -> ()

let finish t ~entry =
  let protos = Array.init t.count (fun i -> t.protos.(i)) in
  let n = Array.length protos in
  Array.iter (fun p -> check_term n p.term) protos;
  let blocks =
    Array.mapi
      (fun id p ->
        {
          Basic_block.id;
          addr = 0;
          bytes = p.bytes;
          n_instrs = p.n_instrs;
          privilege = p.privilege;
          jit = p.jit;
          term = p.term;
          hints = [||];
        })
      protos
  in
  let aligned = Array.map (fun p -> p.aligned) protos in
  Program.v ~entry blocks ~aligned
