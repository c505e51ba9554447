module Json = Ripple_util.Json
module Prng = Ripple_util.Prng

type t = { fd : Unix.file_descr; reader : Protocol.Reader.t; buf : bytes }

let connect ?timeout ~host ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter
    (fun s ->
      (* A stalled server (or a chaos proxy holding a frame hostage)
         surfaces as EAGAIN on read/write instead of hanging the push
         forever; the retry loop treats that like any other broken
         connection. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO s)
    timeout;
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; reader = Protocol.Reader.create (); buf = Bytes.create 65536 }

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd s !pos (len - !pos)
  done

let int_field key json =
  match Json.member key json with Some (Json.Int n) -> Some n | _ -> None

(* Write one frame and read replies until one that is not [stale]
   arrives. *)
let exchange ~label ~stale t frame =
  let out = Buffer.create 256 in
  Protocol.write_frame out frame;
  write_all t.fd (Buffer.contents out);
  let rec await () =
    match Protocol.Reader.pop_reply t.reader with
    | `Reply r when stale r -> await ()
    | `Reply r -> r
    | `Corrupt msg -> failwith (label ^ ": " ^ msg)
    | `Awaiting -> begin
      match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
      | 0 -> failwith (label ^ ": server closed connection")
      | n ->
        Protocol.Reader.add t.reader t.buf n;
        await ()
    end
  in
  await ()

let request = exchange ~label:"Client.request" ~stale:(fun _ -> false)

(* A duplicating fault can make the server send more replies than the
   client sent frames, knocking the lockstep request/reply pairing out
   of alignment — replies tagged with an older sequence number are
   stale echoes and are skipped. *)
let request_seq t frame ~seq =
  exchange ~label:"Client.request_seq" t frame ~stale:(function
    | Protocol.Ok json -> ( match int_field "seq" json with Some s -> s < seq | None -> false)
    | Protocol.Error _ -> false)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ------------------------- resumable push ------------------------- *)

type push_result = { status : Json.t; attempts_used : int }

let split_chunks chunk data =
  let len = Bytes.length data in
  let n = (len + chunk - 1) / chunk in
  List.init n (fun i -> Bytes.sub data (i * chunk) (min chunk (len - (i * chunk))))

let push_with_retries ?(attempts = 8) ?(timeout = 5.0) ?(backoff = 0.05) ?(seed = 42)
    ?(chunk = 4096) ~host ~port ~app data =
  if attempts < 1 then invalid_arg "Client.push_with_retries: attempts must be positive";
  if chunk < 1 then invalid_arg "Client.push_with_retries: chunk must be positive";
  let chunks = Array.of_list (split_chunks chunk data) in
  let n = Array.length chunks in
  let prng = Prng.create ~seed in
  (* The base sequence number is pinned at the first successful hello:
     everything the server applies after that — across however many
     reconnects — is our frames consuming [base .. base+n] exactly
     once. *)
  let base = ref None in
  let last_error = ref "no attempt made" in
  let result = ref None in
  let attempt_no = ref 0 in
  while !result = None && !attempt_no < attempts do
    if !attempt_no > 0 then begin
      (* Exponential backoff with seeded jitter: deterministic for a
         given seed, still spreading a fleet of retrying agents. *)
      let scale = Float.of_int (1 lsl min (!attempt_no - 1) 16) in
      Unix.sleepf (backoff *. scale *. (0.5 +. Prng.float prng 1.0))
    end;
    incr attempt_no;
    match
      let c = connect ~timeout ~host ~port () in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          match request c (Protocol.Hello_v { app; version = Protocol.version }) with
          | Protocol.Error msg -> Error ("hello: " ^ msg)
          | Protocol.Ok hello -> begin
            match int_field "next_seq" hello with
            | None -> Error "hello: reply carries no next_seq"
            | Some next_seq -> begin
              let b =
                match !base with
                | Some b when next_seq >= b -> b
                | Some _ | None ->
                  (* First hello — or the server's horizon regressed
                     below the pinned base (state dir wiped, durable
                     state lost).  Re-pin and restart the push from
                     chunk 0: retrying the old range would be answered
                     "gap: expected seq N" forever. *)
                  base := Some next_seq;
                  next_seq
              in
              if next_seq > b + n then
                (* The flush slot is already consumed: a previous
                   attempt completed the whole push and only its reply
                   was lost. *)
                match request c Protocol.Status with
                | Protocol.Ok status -> Ok status
                | Protocol.Error msg -> Error ("status: " ^ msg)
              else begin
                (* Resume where the server actually got to. *)
                let start = max 0 (next_seq - b) in
                let rec send i =
                  if i >= n then Ok ()
                  else
                    match
                      request_seq c ~seq:(b + i)
                        (Protocol.Chunk_seq { seq = b + i; data = chunks.(i) })
                    with
                    | Protocol.Ok _ -> send (i + 1)
                    | Protocol.Error msg -> Error (Printf.sprintf "chunk %d: %s" i msg)
                in
                match send start with
                | Error _ as e -> e
                | Ok () -> begin
                  match request_seq c ~seq:(b + n) (Protocol.Flush_seq { seq = b + n }) with
                  | Protocol.Ok status -> Ok status
                  | Protocol.Error msg -> Error ("flush: " ^ msg)
                end
              end
            end
          end)
    with
    | Ok status -> result := Some { status; attempts_used = !attempt_no }
    | Error msg -> last_error := msg
    | exception Unix.Unix_error (err, fn, _) ->
      last_error := Printf.sprintf "%s: %s" fn (Unix.error_message err)
    | exception Failure msg -> last_error := msg
  done;
  match !result with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "push failed after %d attempts: %s" attempts !last_error)

let scrape ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let b = Buffer.create 4096 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      write_all fd
        (Printf.sprintf "GET /metrics HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" host);
      let chunk = Bytes.create 65536 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes b chunk 0 n;
          drain ()
      in
      drain ());
  let response = Buffer.contents b in
  match String.index_opt response '\r' with
  | None -> response
  | Some _ -> begin
    (* Split head from body at the first blank line. *)
    let rec find i =
      if i + 3 >= String.length response then None
      else if String.sub response i 4 = "\r\n\r\n" then Some (i + 4)
      else find (i + 1)
    in
    match find 0 with None -> response | Some body -> String.sub response body (String.length response - body)
  end
