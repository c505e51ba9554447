module Prng = Ripple_util.Prng
module Json = Ripple_util.Json

type t =
  | Net_clean
  | Torn_frame
  | Corrupt_length
  | Mid_frame_cut
  | Duplicate_frame
  | Stall_frame of { delay : float }

let name = function
  | Net_clean -> "net-clean"
  | Torn_frame -> "torn-frame"
  | Corrupt_length -> "corrupt-length"
  | Mid_frame_cut -> "mid-frame-cut"
  | Duplicate_frame -> "duplicate-frame"
  | Stall_frame _ -> "stall-frame"

let to_string = function
  | Stall_frame { delay } -> Printf.sprintf "stall-frame:%g" delay
  | f -> name f

let to_json t =
  let param = match t with Stall_frame { delay } -> [ ("delay", Json.Float delay) ] | _ -> [] in
  Json.Obj (("class", Json.String (name t)) :: param)

type action =
  | Deliver of bytes list
  | Deliver_then_cut of bytes list
  | Delay of float * bytes

(* Deterministic per-(seed, index) choice of where to cut/tear: the same
   seed replays the same mangling, which is what lets a chaos report be
   reproduced from its seed alone. *)
let offset_in ~seed ~index len =
  let p = Prng.create ~seed:(seed lxor (0x9e3779b9 * (index + 1))) in
  1 + Prng.int p (max 1 (len - 1))

let plan ~seed t ~victim ~index frame =
  let len = Bytes.length frame in
  if index <> victim || t = Net_clean then Deliver [ frame ]
  else
    match t with
    | Net_clean -> Deliver [ frame ]
    | Torn_frame ->
      (* Two writes with a seam chosen anywhere in the frame — usually
         inside the 5-byte header, the case a naive reader gets wrong. *)
      let cut = offset_in ~seed ~index len in
      Deliver [ Bytes.sub frame 0 cut; Bytes.sub frame cut (len - cut) ]
    | Corrupt_length ->
      (* Frames are tag byte + u32 big-endian length: force the length's
         top byte sky-high so the receiver sees an absurd frame and must
         reject the stream rather than wait forever for 2 GiB. *)
      let mangled = Bytes.copy frame in
      if len >= 2 then Bytes.set mangled 1 '\x7f';
      Deliver [ mangled ]
    | Mid_frame_cut ->
      let keep = offset_in ~seed ~index len in
      Deliver_then_cut [ Bytes.sub frame 0 keep ]
    | Duplicate_frame -> Deliver [ frame; frame ]
    | Stall_frame { delay } -> Delay (delay, frame)
