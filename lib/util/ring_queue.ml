type 'a t = {
  buf : 'a array;
  mutable head : int; (* index of front element *)
  mutable len : int;
}

let create ~capacity ~dummy =
  assert (capacity > 0);
  { buf = Array.make capacity dummy; head = 0; len = 0 }

let capacity t = Array.length t.buf
let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = Array.length t.buf

let push t x =
  if is_full t then false
  else begin
    let tail = (t.head + t.len) mod Array.length t.buf in
    t.buf.(tail) <- x;
    t.len <- t.len + 1;
    true
  end

let push_overwrite t x =
  if is_full t then begin
    t.buf.(t.head) <- x;
    t.head <- (t.head + 1) mod Array.length t.buf
  end
  else ignore (push t x)

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    Some x
  end

let peek t = if t.len = 0 then None else Some t.buf.(t.head)

let pop_or t ~default =
  if t.len = 0 then default
  else begin
    let x = t.buf.(t.head) in
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    x
  end

let peek_or t ~default = if t.len = 0 then default else t.buf.(t.head)
let clear t = t.len <- 0

let iter f t =
  let n = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) mod n)
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc
