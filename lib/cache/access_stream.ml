(* Packed access streams over backing-polymorphic [Int_stream]s.  See
   the .mli. *)

module Int_stream = Ripple_util.Int_stream

type backing = Int_stream.backing = Heap | Spill

type t = Int_stream.t

let chunk_entries = Int_stream.chunk_entries
let empty = Int_stream.empty
let length = Int_stream.length

let get t i =
  if i < 0 || i >= Int_stream.length t then
    invalid_arg
      (Printf.sprintf "Access_stream.get: index %d out of bounds [0,%d)" i
         (Int_stream.length t));
  Int_stream.unsafe_get t i

let iter = Int_stream.iter
let iteri = Int_stream.iteri
let iteri_rev = Int_stream.iteri_rev
let fold_left = Int_stream.fold_left
let backing t = if Int_stream.is_spill t then Spill else Heap
let is_spill = Int_stream.is_spill
let close = Int_stream.close
let raw t = t

module Builder = struct
  type _stream = t
  type t = Int_stream.Builder.t

  let create ?backing () = Int_stream.Builder.create ?backing ()
  let length = Int_stream.Builder.length
  let add = Int_stream.Builder.add
  let add_access b acc = add b (Access.pack acc)
  let finish : t -> _stream = Int_stream.Builder.finish
  let abort = Int_stream.Builder.abort
end

let of_array accesses =
  let b = Builder.create () in
  Array.iter (fun acc -> Builder.add_access b acc) accesses;
  Builder.finish b

let of_list ?backing accesses =
  let b = Builder.create ?backing () in
  List.iter (fun acc -> Builder.add_access b acc) accesses;
  Builder.finish b

let to_array t = Array.init (length t) (fun i -> Access.unpack (get t i))

module Cursor = struct
  type _stream = t
  type t = Int_stream.Cursor.t

  let create = Int_stream.Cursor.create
  let pos = Int_stream.Cursor.pos
  let length = Int_stream.Cursor.length
  let has_next = Int_stream.Cursor.has_next
  let next = Int_stream.Cursor.next
  let peek = Int_stream.Cursor.peek
  let rewind = Int_stream.Cursor.rewind

  let seek c pos =
    let n = length c in
    if pos < 0 || pos > n then
      invalid_arg (Printf.sprintf "Access_stream.Cursor.seek: %d out of [0,%d]" pos n);
    Int_stream.Cursor.seek c pos

  let close = Int_stream.Cursor.close
end
