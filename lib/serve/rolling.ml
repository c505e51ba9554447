module Int_stream = Ripple_util.Int_stream

type generation = { g_blocks : Int_stream.t; g_expected : int; g_errors : int }

type t = {
  window : int;
  backing : Int_stream.backing;
  mutable gens : generation list; (* newest first *)
  mutable total : int;
}

let create ?(backing = Int_stream.Heap) ~window () =
  if window <= 0 then invalid_arg "Rolling.create: window must be positive";
  { window; backing; gens = []; total = 0 }

let backing t = t.backing

let add t ~blocks ~expected ~errors =
  (* Write-through: the capture lands in the window's backing — with a
     spill backing a generation costs the daemon no heap beyond this
     record. *)
  let g_blocks = Int_stream.of_array ~backing:t.backing blocks in
  t.gens <- { g_blocks; g_expected = expected; g_errors = errors } :: t.gens;
  t.total <- t.total + Int_stream.length g_blocks;
  (* Evict oldest-first while over capacity, but never the sole
     generation: one oversized capture still counts as the profile. *)
  let rec evict () =
    if t.total > t.window && List.length t.gens > 1 then begin
      let rec split acc = function
        | [ oldest ] -> (List.rev acc, oldest)
        | g :: rest -> split (g :: acc) rest
        | [] -> assert false
      in
      let keep, oldest = split [] t.gens in
      t.gens <- keep;
      t.total <- t.total - Int_stream.length oldest.g_blocks;
      Int_stream.close oldest.g_blocks;
      evict ()
    end
  in
  evict ()

let blocks t = t.total
let generations t = List.length t.gens

let trace t =
  let out = Array.make t.total 0 in
  (* [gens] is newest first; the merged trace runs oldest first. *)
  let pos = ref t.total in
  List.iter
    (fun g ->
      let n = Int_stream.length g.g_blocks in
      pos := !pos - n;
      let base = !pos in
      Int_stream.iteri (fun i v -> out.(base + i) <- v) g.g_blocks)
    t.gens;
  out

let dump t =
  List.rev_map
    (fun g ->
      let blocks = Array.make (Int_stream.length g.g_blocks) 0 in
      Int_stream.iteri (fun i v -> blocks.(i) <- v) g.g_blocks;
      (blocks, g.g_expected, g.g_errors))
    t.gens

let advertised t = List.fold_left (fun acc g -> acc + g.g_expected) 0 t.gens

let salvage t =
  let expected = advertised t in
  if expected > 0 then Float.of_int t.total /. Float.of_int expected
  else if t.gens <> [] && List.for_all (fun g -> g.g_errors = 0) t.gens then 1.0
  else 0.0

let errors t = List.fold_left (fun acc g -> acc + g.g_errors) 0 t.gens

let close t =
  List.iter (fun g -> Int_stream.close g.g_blocks) t.gens;
  t.gens <- [];
  t.total <- 0
