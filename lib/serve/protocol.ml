module Json = Ripple_util.Json

type frame =
  | Hello_v of { app : string; version : int }
  | Chunk_seq of { seq : int; data : bytes }
  | Flush_seq of { seq : int }
  | Status
  | Bye

type reply = Ok of Json.t | Error of string

(* Generous for PT chunks (a whole capture fits in one frame if the
   client insists) while bounding what a garbage length prefix can make
   the reader try to buffer. *)
let max_payload = 16 * 1024 * 1024

(* The sequenced dialect: per-session sequence numbers on chunks and
   flushes make pushes at-least-once with server-side dedup. *)
let version = 2

let frame_name = function
  | Hello_v _ -> "hello"
  | Chunk_seq _ -> "chunk"
  | Flush_seq _ -> "flush"
  | Status -> "status"
  | Bye -> "bye"

let tag_of_frame = function
  | Hello_v _ -> 'h'
  | Chunk_seq _ -> 'c'
  | Flush_seq _ -> 'f'
  | Status -> 'S'
  | Bye -> 'B'

let add_u32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF))

let u32_to_string n =
  let b = Buffer.create 4 in
  add_u32 b n;
  Buffer.contents b

let u32_of_string s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let write buf tag payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Protocol.write: payload too large";
  Buffer.add_char buf tag;
  add_u32 buf n;
  Buffer.add_string buf payload

(* The wire carries sequence numbers as u32.  A seq past that would
   alias an earlier one after encoding, silently corrupting the dedup
   horizon — reject it loudly instead (the durable snapshot keeps
   counters at full width; only the wire is 32-bit). *)
let check_seq seq =
  if seq < 0 || seq > 0xFFFF_FFFF then invalid_arg "Protocol.write_frame: seq exceeds u32";
  seq

let write_frame buf frame =
  let payload =
    match frame with
    | Hello_v { app; version } ->
      if version < 1 || version > 0xFF then invalid_arg "Protocol.write_frame: bad version";
      String.make 1 (Char.chr version) ^ app
    | Chunk_seq { seq; data } -> u32_to_string (check_seq seq) ^ Bytes.to_string data
    | Flush_seq { seq } -> u32_to_string (check_seq seq)
    | Status | Bye -> ""
  in
  write buf (tag_of_frame frame) payload

let write_reply buf = function
  | Ok json -> write buf 'O' (Json.to_string json)
  | Error msg -> write buf 'E' msg

module Reader = struct
  (* A growable byte queue with a consumed prefix, compacted lazily so
     steady-state reads don't shift memory. *)
  type t = { mutable data : bytes; mutable start : int; mutable len : int }

  let create () = { data = Bytes.create 4096; start = 0; len = 0 }

  let add t buf n =
    if n < 0 || n > Bytes.length buf then invalid_arg "Protocol.Reader.add";
    if t.start + t.len + n > Bytes.length t.data then begin
      let cap = ref (max 4096 (2 * Bytes.length t.data)) in
      while t.len + n > !cap do
        cap := 2 * !cap
      done;
      let grown = Bytes.create !cap in
      Bytes.blit t.data t.start grown 0 t.len;
      t.data <- grown;
      t.start <- 0
    end;
    Bytes.blit buf 0 t.data (t.start + t.len) n;
    t.len <- t.len + n

  let byte t i = Char.code (Bytes.get t.data (t.start + i))

  (* Pop the next (tag, payload) pair if a whole frame is buffered. *)
  let pop_raw t =
    if t.len < 5 then `Awaiting
    else begin
      let tag = Bytes.get t.data t.start in
      let n = (byte t 1 lsl 24) lor (byte t 2 lsl 16) lor (byte t 3 lsl 8) lor byte t 4 in
      if n > max_payload then `Corrupt (Printf.sprintf "frame length %d exceeds cap" n)
      else if t.len < 5 + n then `Awaiting
      else begin
        let payload = Bytes.sub_string t.data (t.start + 5) n in
        t.start <- t.start + 5 + n;
        t.len <- t.len - 5 - n;
        if t.len = 0 then t.start <- 0;
        `Raw (tag, payload)
      end
    end

  let pop_frame t =
    match pop_raw t with
    | `Awaiting -> `Awaiting
    | `Corrupt _ as c -> c
    | `Raw (tag, payload) -> begin
      match tag with
      | 'h' ->
        if String.length payload < 1 then `Corrupt "hello-v payload too short"
        else
          `Frame
            (Hello_v
               {
                 app = String.sub payload 1 (String.length payload - 1);
                 version = Char.code payload.[0];
               })
      | 'c' ->
        if String.length payload < 4 then `Corrupt "sequenced chunk payload too short"
        else
          `Frame
            (Chunk_seq
               {
                 seq = u32_of_string payload 0;
                 data = Bytes.of_string (String.sub payload 4 (String.length payload - 4));
               })
      | 'f' ->
        if String.length payload <> 4 then `Corrupt "sequenced flush payload malformed"
        else `Frame (Flush_seq { seq = u32_of_string payload 0 })
      | 'S' -> `Frame Status
      | 'B' -> `Frame Bye
      | c -> `Corrupt (Printf.sprintf "unknown frame tag %C" c)
    end

  let pop_reply t =
    match pop_raw t with
    | `Awaiting -> `Awaiting
    | `Corrupt _ as c -> c
    | `Raw (tag, payload) -> begin
      match tag with
      | 'O' -> begin
        match Json.parse payload with
        | Result.Ok json -> `Reply (Ok json)
        | Result.Error e -> `Corrupt (Printf.sprintf "unparseable ok payload: %s" e)
      end
      | 'E' -> `Reply (Error payload)
      | c -> `Corrupt (Printf.sprintf "unknown reply tag %C" c)
    end
end
