type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* SplitMix64: used only to expand a seed into the xoshiro state, as
   recommended by the xoshiro authors. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  (* xoshiro must not be seeded with the all-zero state. *)
  let s3 = if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then 1L else s3 in
  { s0; s1; s2; s3 }

let seed_of_string s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create ~seed

(* Uniform int in [0, n) by rejection on the top 62 bits to stay within
   OCaml's native positive int range. *)
let int t n =
  assert (n > 0);
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let rec draw () =
    let v = Int64.to_int (bits64 t) land mask in
    let lim = mask - (mask mod n) in
    if v < lim then v mod n else draw ()
  in
  draw ()

let float t x =
  (* 53 uniform mantissa bits. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  Float.of_int v /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let geometric t ~p =
  assert (p > 0.0 && p <= 1.0);
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    (* Avoid log 0. *)
    let u = if u <= 0.0 then Float.min_float else u in
    let k = Float.to_int (Float.log u /. Float.log (1.0 -. p)) in
    if k < 0 then 0 else k

(* Rejection-inversion sampling for the Zipf distribution, after
   W. Hörmann & G. Derflinger, "Rejection-inversion to generate variates
   from monotone discrete distributions" (1996). *)
let zipf t ~n ~s =
  assert (n > 0);
  if n = 1 then 0
  else begin
    let s = if s <= 0.0 then 0.01 else s in
    let h x = if Float.abs (1.0 -. s) < 1e-9 then Float.log x else (Float.pow x (1.0 -. s)) /. (1.0 -. s) in
    let h_inv x =
      if Float.abs (1.0 -. s) < 1e-9 then Float.exp x
      else Float.pow ((1.0 -. s) *. x) (1.0 /. (1.0 -. s))
    in
    let nf = Float.of_int n in
    let hx0 = h 0.5 -. 1.0 in
    let hn = h (nf +. 0.5) in
    let rec draw () =
      let u = hx0 +. (float t 1.0 *. (hn -. hx0)) in
      let x = h_inv u in
      let k = Float.to_int (x +. 0.5) in
      let k = if k < 1 then 1 else if k > n then n else k in
      let kf = Float.of_int k in
      if u >= h (kf +. 0.5) -. (1.0 /. Float.pow kf s) then k - 1 else draw ()
    in
    draw ()
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
