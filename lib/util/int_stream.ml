(* Backing-polymorphic chunked int streams.  See the .mli. *)

let chunk_bits = 16
let chunk_entries = 1 lsl chunk_bits
let chunk_mask = chunk_entries - 1
let word_bytes = 8

type backing = Heap | Spill

let backing_name = function Heap -> "heap" | Spill -> "mmap"

let backing_of_string = function
  | "heap" -> Ok Heap
  | "mmap" | "spill" -> Ok Spill
  | s -> Error (Printf.sprintf "unknown backing %S (expected heap or mmap)" s)

(* ---- Spill-file registry -------------------------------------------- *)

type spill_file = { path : string; mutable unlinked : bool }

(* All spill files created by this process and not yet unlinked, so
   failure paths ([Spill.sweep]) can clean up capture files they never
   saw being created.  The lock also serializes the [unlinked] flag, so
   close / finaliser / sweep races unlink exactly once. *)
let registry : (string, spill_file) Hashtbl.t = Hashtbl.create 7
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let register_spill sf = with_registry (fun () -> Hashtbl.replace registry sf.path sf)

let unlink_spill sf =
  let fresh =
    with_registry (fun () ->
        if sf.unlinked then false
        else begin
          sf.unlinked <- true;
          Hashtbl.remove registry sf.path;
          true
        end)
  in
  if fresh then (try Sys.remove sf.path with Sys_error _ -> ());
  fresh

(* Spill files the GC finaliser had to unlink: streams dropped without
   a [close].  Tests read it to see a leak the backstop would hide. *)
let finalised_count = Atomic.make 0

module Spill = struct
  let live () =
    with_registry (fun () -> Hashtbl.fold (fun p _ acc -> p :: acc) registry [])
    |> List.sort String.compare

  let sweep () =
    let files =
      with_registry (fun () -> Hashtbl.fold (fun _ sf acc -> sf :: acc) registry [])
    in
    List.iter (fun sf -> ignore (unlink_spill sf)) files;
    List.length files

  let finalised () = Atomic.get finalised_count
end

(* ---- Streams -------------------------------------------------------- *)

type map1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type mapped = { arr : map1; file : spill_file }

type storage =
  | Chunks of int array array (* all but the last are [chunk_entries] long *)
  | Map of mapped

type t = { storage : storage; length : int }

let empty = { storage = Chunks [||]; length = 0 }
let length t = t.length

let unsafe_get t i =
  match t.storage with
  | Chunks chunks ->
      Array.unsafe_get (Array.unsafe_get chunks (i lsr chunk_bits)) (i land chunk_mask)
  | Map m -> Bigarray.Array1.unsafe_get m.arr i

let get t i =
  if i < 0 || i >= t.length then
    invalid_arg (Printf.sprintf "Int_stream.get: index %d out of bounds [0,%d)" i t.length);
  unsafe_get t i

let iteri f t =
  match t.storage with
  | Chunks chunks ->
      let i = ref 0 in
      let n = t.length in
      for c = 0 to Array.length chunks - 1 do
        let chunk = Array.unsafe_get chunks c in
        let stop = min (Array.length chunk) (n - !i) in
        for k = 0 to stop - 1 do
          f !i (Array.unsafe_get chunk k);
          incr i
        done
      done
  | Map m ->
      for i = 0 to t.length - 1 do
        f i (Bigarray.Array1.unsafe_get m.arr i)
      done

let iter f t = iteri (fun _ p -> f p) t

let iteri_rev f t =
  match t.storage with
  | Chunks chunks ->
      for c = Array.length chunks - 1 downto 0 do
        let chunk = Array.unsafe_get chunks c in
        let base = c lsl chunk_bits in
        let stop = min (Array.length chunk) (t.length - base) in
        for k = stop - 1 downto 0 do
          f (base + k) (Array.unsafe_get chunk k)
        done
      done
  | Map m ->
      for i = t.length - 1 downto 0 do
        f i (Bigarray.Array1.unsafe_get m.arr i)
      done

let fold_left f init t =
  let acc = ref init in
  iter (fun p -> acc := f !acc p) t;
  !acc

let is_spill t = match t.storage with Map _ -> true | Chunks _ -> false

let spill_path t =
  match t.storage with
  | Map m when not m.file.unlinked -> Some m.file.path
  | Map _ | Chunks _ -> None

let close t =
  match t.storage with Map m -> ignore (unlink_spill m.file) | Chunks _ -> ()

(* ---- Builder -------------------------------------------------------- *)

module Builder = struct
  type stream = t

  type t = {
    backing : backing;
    (* heap storage under construction *)
    mutable chunks : int array array; (* all but the last are full *)
    mutable last : int array;
    mutable last_len : int; (* filled entries of [last] *)
    mutable full_len : int; (* total entries already retired *)
    (* spill storage under construction: [buf] holds the unflushed tail
       chunk as packed native-endian words *)
    buf : Bytes.t;
    mutable chan : out_channel option;
    mutable file : spill_file option;
  }

  let create ?(backing = Heap) () =
    let buf =
      match backing with
      | Heap -> Bytes.empty
      | Spill -> Bytes.create (chunk_entries * word_bytes)
    in
    { backing; chunks = [||]; last = [||]; last_len = 0; full_len = 0;
      buf; chan = None; file = None }

  let backing b = b.backing
  let length b = b.full_len + b.last_len

  let spill_chan b =
    match b.chan with
    | Some chan -> chan
    | None ->
        let path = Filename.temp_file "ripple-spill-" ".bin" in
        let sf = { path; unlinked = false } in
        register_spill sf;
        let chan = open_out_bin path in
        b.file <- Some sf;
        b.chan <- Some chan;
        chan

  let add b p =
    match b.backing with
    | Heap ->
        if b.last_len = Array.length b.last then begin
          (* [last] is full (or the initial empty array): retire it. *)
          if b.last_len > 0 then begin
            let n = Array.length b.chunks in
            let bigger = Array.make (n + 1) b.last in
            Array.blit b.chunks 0 bigger 0 n;
            b.chunks <- bigger;
            b.full_len <- b.full_len + b.last_len
          end;
          b.last <- Array.make chunk_entries 0;
          b.last_len <- 0
        end;
        Array.unsafe_set b.last b.last_len p;
        b.last_len <- b.last_len + 1
    | Spill ->
        Bytes.set_int64_ne b.buf (b.last_len * word_bytes) (Int64.of_int p);
        b.last_len <- b.last_len + 1;
        if b.last_len = chunk_entries then begin
          output (spill_chan b) b.buf 0 (chunk_entries * word_bytes);
          b.full_len <- b.full_len + b.last_len;
          b.last_len <- 0
        end

  let reset b =
    b.chunks <- [||];
    b.last <- [||];
    b.last_len <- 0;
    b.full_len <- 0;
    b.chan <- None;
    b.file <- None

  let abort b =
    (match b.chan with Some chan -> close_out_noerr chan | None -> ());
    (match b.file with Some sf -> ignore (unlink_spill sf) | None -> ());
    reset b

  let map_stream file ~length =
    let fd = Unix.openfile file.path [ Unix.O_RDONLY ] 0 in
    let arr =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.int Bigarray.c_layout false [| length |]))
    in
    let m = { arr; file } in
    (* Backstop: a dropped stream must not leak its capture file even if
       no one called [close]. *)
    Gc.finalise (fun (m : mapped) -> if unlink_spill m.file then Atomic.incr finalised_count) m;
    { storage = Map m; length }

  let finish b : stream =
    match b.backing with
    | Heap ->
        let length = length b in
        let chunks =
          if b.last_len = 0 then b.chunks
          else begin
            let n = Array.length b.chunks in
            let all = Array.make (n + 1) b.last in
            Array.blit b.chunks 0 all 0 n;
            (* Trim the tail chunk so the stream owns no slack. *)
            all.(n) <-
              (if b.last_len = chunk_entries then b.last
               else Array.sub b.last 0 b.last_len);
            all
          end
        in
        (* Reset so reusing the builder cannot alias the frozen chunks. *)
        reset b;
        { storage = Chunks chunks; length }
    | Spill ->
        let length = length b in
        if length = 0 then begin
          abort b;
          empty
        end
        else begin
          let chan = spill_chan b in
          if b.last_len > 0 then output chan b.buf 0 (b.last_len * word_bytes);
          close_out chan;
          let file = Option.get b.file in
          let stream =
            match map_stream file ~length with
            | s -> s
            | exception e ->
                ignore (unlink_spill file);
                raise e
          in
          reset b;
          stream
        end
end

let of_array ?backing xs =
  let b = Builder.create ?backing () in
  Array.iter (Builder.add b) xs;
  Builder.finish b

let to_array t = Array.init t.length (unsafe_get t)

(* ---- Cursor --------------------------------------------------------- *)

module Cursor = struct
  type stream = t
  type t = { stream : stream; mutable pos : int }

  let create stream = { stream; pos = 0 }
  let pos c = c.pos
  let length c = c.stream.length
  let has_next c = c.pos < c.stream.length

  let next c =
    let p = get c.stream c.pos in
    c.pos <- c.pos + 1;
    p

  let peek c = get c.stream c.pos
  let rewind c = c.pos <- 0

  let seek c pos =
    if pos < 0 || pos > c.stream.length then
      invalid_arg
        (Printf.sprintf "Int_stream.Cursor.seek: %d out of [0,%d]" pos c.stream.length);
    c.pos <- pos

  let close c = close c.stream
end

(* ---- Scratch -------------------------------------------------------- *)

module Scratch = struct
  type t = Sheap of int array | Smap of map1

  let make ?(backing = Heap) n x =
    if n < 0 then invalid_arg "Int_stream.Scratch.make";
    match backing with
    | Heap -> Sheap (Array.make n x)
    | Spill when n = 0 -> Sheap [||]
    | Spill ->
        let path = Filename.temp_file "ripple-scratch-" ".bin" in
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
        let arr =
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              (* Unlink before use: the mapping needs no name, so a
                 scratch can never outlive the process as a stray file. *)
              (try Sys.remove path with Sys_error _ -> ());
              Unix.ftruncate fd (n * word_bytes);
              Bigarray.array1_of_genarray
                (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| n |]))
        in
        Bigarray.Array1.fill arr x;
        Smap arr

  let length = function
    | Sheap a -> Array.length a
    | Smap a -> Bigarray.Array1.dim a

  let get t i =
    match t with Sheap a -> a.(i) | Smap a -> Bigarray.Array1.get a i

  let set t i x =
    match t with Sheap a -> a.(i) <- x | Smap a -> Bigarray.Array1.set a i x

  let close _ = ()
end
