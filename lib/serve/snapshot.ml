(* Durable session state: a versioned, checksummed snapshot codec plus
   an append-only capture journal, and the Store that puts both on disk
   crash-safely (write to a temp file, fsync, rename, fsync the
   directory).  Everything here is byte-level and pure except Store; the
   codecs never raise on malformed input — a corrupt or truncated file
   loads as [Error], which recovery treats as "no durable state". *)

type gen = { g_blocks : int array; g_expected : int; g_errors : int }

type state = {
  app : string;
  level : int;  (* degradation-ladder rung: 0 full, 1 safe-only, 2 off *)
  transitions : int;
  emissions : int;
  next_seq : int;
  gens : gen list;  (* oldest first, the Rolling window's dump *)
}

(* Format 3: the monotonic counters (transitions, emissions, next_seq,
   journal seqs) are u64 — a u32 would silently wrap the dedup horizon
   on a very long-lived session.  Block counts and payload lengths stay
   u32.  Old-format files fail the magic (snapshot) or the checksum
   (journal) and load as "no durable state". *)
let magic = "RPLSNAP3"
let journal_magic = 'K'

(* FNV-1a 64 over a byte range: the integrity check for both formats. *)
let fnv64 b pos len =
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

let add_u32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF))

let add_u64 buf (n : int64) =
  for i = 0 to 7 do
    let shift = 56 - (8 * i) in
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical n shift) land 0xFF))
  done

let get_u32 b pos =
  (Char.code (Bytes.get b pos) lsl 24)
  lor (Char.code (Bytes.get b (pos + 1)) lsl 16)
  lor (Char.code (Bytes.get b (pos + 2)) lsl 8)
  lor Char.code (Bytes.get b (pos + 3))

let get_u64 b pos =
  let n = ref 0L in
  for i = 0 to 7 do
    n := Int64.logor (Int64.shift_left !n 8) (Int64.of_int (Char.code (Bytes.get b (pos + i))))
  done;
  !n

(* ------------------------------ snapshot ----------------------------- *)

let encode state =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  add_u32 buf (String.length state.app);
  Buffer.add_string buf state.app;
  add_u32 buf state.level;
  add_u64 buf (Int64.of_int state.transitions);
  add_u64 buf (Int64.of_int state.emissions);
  add_u64 buf (Int64.of_int state.next_seq);
  add_u32 buf (List.length state.gens);
  List.iter
    (fun g ->
      add_u32 buf g.g_expected;
      add_u32 buf g.g_errors;
      add_u32 buf (Array.length g.g_blocks);
      Array.iter (fun v -> add_u32 buf v) g.g_blocks)
    state.gens;
  let body = Buffer.to_bytes buf in
  let out = Buffer.create (Bytes.length body + 8) in
  Buffer.add_bytes out body;
  add_u64 out (fnv64 body 0 (Bytes.length body));
  Buffer.to_bytes out

let decode b =
  let len = Bytes.length b in
  let fail msg = Result.Error msg in
  if len < String.length magic + 8 then fail "snapshot too short"
  else if Bytes.sub_string b 0 (String.length magic) <> magic then
    fail "bad snapshot magic"
  else begin
    let body_len = len - 8 in
    let stored = get_u64 b body_len in
    if fnv64 b 0 body_len <> stored then fail "snapshot checksum mismatch"
    else begin
      (* The checksum already vouches for structure, but stay defensive:
         a reader bug must surface as Error, never an exception. *)
      try
        let pos = ref (String.length magic) in
        let u32 () =
          if !pos + 4 > body_len then failwith "short";
          let v = get_u32 b !pos in
          pos := !pos + 4;
          v
        in
        let u64 () =
          if !pos + 8 > body_len then failwith "short";
          let v = get_u64 b !pos in
          pos := !pos + 8;
          Int64.to_int v
        in
        let app_len = u32 () in
        if app_len < 0 || !pos + app_len > body_len then failwith "short";
        let app = Bytes.sub_string b !pos app_len in
        pos := !pos + app_len;
        let level = u32 () in
        let transitions = u64 () in
        let emissions = u64 () in
        let next_seq = u64 () in
        let n_gens = u32 () in
        if n_gens < 0 || n_gens > 1_000_000 then failwith "absurd generation count";
        let gens = ref [] in
        for _ = 1 to n_gens do
          let g_expected = u32 () in
          let g_errors = u32 () in
          let n = u32 () in
          if n < 0 || !pos + (4 * n) > body_len then failwith "short";
          let g_blocks = Array.init n (fun i -> get_u32 b (!pos + (4 * i))) in
          pos := !pos + (4 * n);
          gens := { g_blocks; g_expected; g_errors } :: !gens
        done;
        if !pos <> body_len then failwith "trailing bytes";
        Result.Ok { app; level; transitions; emissions; next_seq; gens = List.rev !gens }
      with Failure _ | Invalid_argument _ -> fail "snapshot body malformed"
    end
  end

(* ------------------------------ journal ------------------------------ *)

(* One record per applied chunk: magic byte, u64 seq, u32 length, the
   chunk bytes, then an FNV of everything before it.  A crash mid-append
   leaves a partial (or checksum-failing) tail; [journal_decode] keeps
   the longest valid prefix and drops the rest, which is exactly the
   set of chunks the session had durably applied. *)

let journal_record ~seq data =
  let buf = Buffer.create (Bytes.length data + 21) in
  Buffer.add_char buf journal_magic;
  add_u64 buf (Int64.of_int seq);
  add_u32 buf (Bytes.length data);
  Buffer.add_bytes buf data;
  let body = Buffer.to_bytes buf in
  let out = Buffer.create (Bytes.length body + 8) in
  Buffer.add_bytes out body;
  add_u64 out (fnv64 body 0 (Bytes.length body));
  Buffer.to_bytes out

let journal_decode b =
  let len = Bytes.length b in
  let records = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos < len do
    if !pos + 13 > len then ok := false
    else if Bytes.get b !pos <> journal_magic then ok := false
    else begin
      let seq = Int64.to_int (get_u64 b (!pos + 1)) in
      let n = get_u32 b (!pos + 9) in
      if n < 0 || !pos + 13 + n + 8 > len then ok := false
      else begin
        let body_len = 13 + n in
        let stored = get_u64 b (!pos + body_len) in
        if fnv64 b !pos body_len <> stored then ok := false
        else begin
          records := (seq, Bytes.sub b (!pos + 13) n) :: !records;
          pos := !pos + body_len + 8
        end
      end
    end
  done;
  List.rev !records

(* ------------------------------- store ------------------------------- *)

module Store = struct
  type t = {
    dir : string;
    journals : (string, Unix.file_descr) Hashtbl.t;  (* app -> open journal fd *)
  }

  (* App names come from the workload registry, but a lookup function
     can resolve anything: keep paths safe. *)
  let sanitize app =
    String.map (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c | _ -> '_')
      (if app = "" then "_" else app)

  let snap_path t app = Filename.concat t.dir (sanitize app ^ ".snap")
  let journal_path t app = Filename.concat t.dir (sanitize app ^ ".journal")

  let rec mkdir_p dir =
    if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let open_dir dir =
    mkdir_p dir;
    { dir; journals = Hashtbl.create 8 }

  let dir t = t.dir

  let fsync_dir dir =
    match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()

  let write_all fd b =
    let len = Bytes.length b in
    let pos = ref 0 in
    while !pos < len do
      pos := !pos + Unix.write fd b !pos (len - !pos)
    done

  (* Atomic durable write: temp file in the same directory, fsync,
     rename over the target, fsync the directory so the rename itself
     survives a power cut. *)
  let write_atomic ~dir ~path data =
    let tmp = Filename.concat dir (Filename.basename path ^ ".tmp") in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        write_all fd data;
        Unix.fsync fd);
    Sys.rename tmp path;
    fsync_dir dir

  let save t state =
    write_atomic ~dir:t.dir ~path:(snap_path t state.app) (encode state)

  let journal_fd t app =
    match Hashtbl.find_opt t.journals app with
    | Some fd -> fd
    | None ->
      let fd =
        Unix.openfile (journal_path t app) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
      in
      Hashtbl.add t.journals app fd;
      fd

  let journal_append t ~app ~seq data =
    let fd = journal_fd t app in
    write_all fd (journal_record ~seq data);
    Unix.fsync fd

  let journal_reset t ~app =
    (match Hashtbl.find_opt t.journals app with
    | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Hashtbl.remove t.journals app
    | None -> ());
    let path = journal_path t app in
    if Sys.file_exists path then Sys.remove path;
    fsync_dir t.dir

  let read_file path =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> None
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          let b = Bytes.create size in
          let pos = ref 0 in
          (try
             while !pos < size do
               match Unix.read fd b !pos (size - !pos) with
               | 0 -> raise Exit
               | n -> pos := !pos + n
             done
           with Exit -> ());
          Some (Bytes.sub b 0 !pos))

  let load t app =
    match read_file (snap_path t app) with
    | None -> None
    | Some data -> begin
      match decode data with
      | Result.Error _ -> None
      | Result.Ok state ->
        let journal =
          match read_file (journal_path t app) with
          | None -> []
          | Some j -> journal_decode j
        in
        (* Only chunks at or past the snapshot's horizon matter: records
           before it were folded into a flushed generation already. *)
        Some (state, List.filter (fun (seq, _) -> seq >= state.next_seq) journal)
    end

  let load_all t =
    Sys.readdir t.dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".snap" then
             match read_file (Filename.concat t.dir f) with
             | None -> None
             | Some data -> begin
               match decode data with
               | Result.Error _ -> None
               | Result.Ok state -> load t state.app
             end
           else None)

  let close t =
    Hashtbl.iter (fun _ fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.journals;
    Hashtbl.reset t.journals
end
