module Addr = Ripple_isa.Addr

type t = { size_bytes : int; ways : int }

let sets t = t.size_bytes / (t.ways * Addr.line_size)
let lines t = t.size_bytes / Addr.line_size

let v ~size_bytes ~ways =
  let t = { size_bytes; ways } in
  let s = sets t in
  assert (s > 0 && s land (s - 1) = 0);
  assert (s * ways * Addr.line_size = size_bytes);
  t

let set_of_line t line = Addr.set_index line ~sets:(sets t)
let l1i = v ~size_bytes:(32 * 1024) ~ways:8
let l2 = v ~size_bytes:(1024 * 1024) ~ways:16
let l3 = v ~size_bytes:(8 * 1024 * 1024) ~ways:16

let pp fmt t =
  Format.fprintf fmt "%d KiB, %d-way, %d sets" (t.size_bytes / 1024) t.ways (sets t)
