(* Reusable set-dueling substrate (Qureshi et al. 2007).

   A fixed, sparse subset of sets is dedicated to each of two competing
   flavours ("leaders"); every other set ("followers") adopts whichever
   flavour is currently winning, as tracked by one saturating PSEL
   counter trained on leader-set misses.  The geometry — one leader per
   flavour every 16 sets, a 10-bit PSEL initialised to its midpoint —
   reproduces DRRIP's historical inline constants exactly, which the
   pinned byte-identity test relies on. *)

type role = Leader_a | Leader_b | Follower

let spacing = 16
let psel_bits = 10
let psel_max = (1 lsl psel_bits) - 1

type t = {
  n_leaders : int;
  mutable psel : int;
  (* Telemetry: per-flavour leader misses and follower-selection flips,
     surfaced as the ripple_duel_* metric families. *)
  mutable a_misses : int;
  mutable b_misses : int;
  mutable flips : int;
  mutable last_b : bool; (* follower selection at the last training *)
}

let make ~sets =
  {
    n_leaders = max 1 (sets / spacing);
    psel = psel_max / 2;
    a_misses = 0;
    b_misses = 0;
    flips = 0;
    last_b = false;
  }

let role t ~set =
  let q = set / spacing in
  if set mod spacing = 0 && q < t.n_leaders then Leader_a
  else if set mod spacing = spacing / 2 && q < t.n_leaders then Leader_b
  else Follower

let follower_selects_b t = t.psel > psel_max / 2

let train_miss t ~set =
  (match role t ~set with
  | Leader_a ->
    t.a_misses <- t.a_misses + 1;
    t.psel <- min psel_max (t.psel + 1)
  | Leader_b ->
    t.b_misses <- t.b_misses + 1;
    t.psel <- max 0 (t.psel - 1)
  | Follower -> ());
  let b = follower_selects_b t in
  if b <> t.last_b then begin
    t.flips <- t.flips + 1;
    t.last_b <- b
  end

let selects_b t ~set =
  match role t ~set with
  | Leader_a -> false
  | Leader_b -> true
  | Follower -> follower_selects_b t

let psel t = t.psel
let a_misses t = t.a_misses
let b_misses t = t.b_misses
let flips t = t.flips
let storage_bits _ = psel_bits
