module Program = Ripple_isa.Program
module Pipeline = Ripple_core.Pipeline
module Apps = Ripple_workloads.Apps
module Cfg_gen = Ripple_workloads.Cfg_gen
module Obs = Ripple_obs
module Json = Ripple_util.Json

type config = {
  host : string;
  port : int;
  metrics_port : int;
  window : int;
  reemit_every : int;
  options : Pipeline.Options.t;
  lookup : string -> Program.t option;
  ready_file : string option;
  state_dir : string option;
  max_conns : int;
  max_sessions : int;
  idle_timeout : float;
}

let builtin_lookup =
  let cache : (string, Program.t) Hashtbl.t = Hashtbl.create 16 in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some p -> Some p
    | None ->
      Apps.by_name name
      |> Option.map (fun model ->
             let program = (Cfg_gen.generate model).Cfg_gen.program in
             Hashtbl.add cache name program;
             program)

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    metrics_port = 0;
    window = 400_000;
    reemit_every = 0;
    options = { Pipeline.Options.default with degrade = true };
    lookup = builtin_lookup;
    ready_file = None;
    state_dir = None;
    max_conns = 64;
    max_sessions = 32;
    idle_timeout = 30.0;
  }

type cells = {
  sessions_gauge : Obs.Metric.gauge;
  connections_gauge : Obs.Metric.gauge;
  frames : Obs.Metric.counter;
  scrapes : Obs.Metric.counter;
  snapshots_written : Obs.Metric.counter;
  snapshots_recovered : Obs.Metric.counter;
  connections_shed : Obs.Metric.counter;
  deadlines_expired : Obs.Metric.counter;
  client_retries : Obs.Metric.counter;
}

type t = {
  config : config;
  obs : Obs.Run.t;
  store : Snapshot.Store.t option;
  mutable sessions : Session.t list;  (* name-sorted *)
  mutable stopping : bool;
  cells : cells;
}

let session_of t (state : Snapshot.state) journal =
  match t.config.lookup state.Snapshot.app with
  | None -> None
  | Some program ->
    Some
      (Session.restore ?store:t.store ~obs:t.obs ~options:t.config.options
         ~window:t.config.window ~reemit_every:t.config.reemit_every ~program state journal)

let create config =
  (* Checked here, not where the first session's window is built inside
     the event loop. *)
  if config.window < 1 then invalid_arg "Server.create: window must be positive";
  let obs = Obs.Run.create () in
  (* Daemon teardown: whatever spill-backed windows are still live when
     the process exits, their files go with it. *)
  at_exit (fun () -> ignore (Ripple_util.Int_stream.Spill.sweep () : int));
  let reg = Obs.Run.registry obs in
  (* The scrape endpoint must expose the full pinned vocabulary from the
     first request, not just the families the traffic so far happened to
     touch. *)
  Pipeline.register_metrics reg;
  let cells =
    {
      sessions_gauge = Obs.Registry.gauge reg ~help:"registered app sessions" "ripple_serve_sessions";
      connections_gauge =
        Obs.Registry.gauge reg ~help:"open protocol connections" "ripple_serve_connections";
      frames = Obs.Registry.counter reg ~help:"protocol frames handled" "ripple_serve_frames";
      scrapes = Obs.Registry.counter reg ~help:"metrics scrapes served" "ripple_serve_scrapes";
      snapshots_written =
        Obs.Registry.counter reg ~help:"durable session snapshots written"
          "ripple_serve_snapshots_written";
      snapshots_recovered =
        Obs.Registry.counter reg ~help:"sessions recovered from durable snapshots at startup"
          "ripple_serve_snapshots_recovered";
      connections_shed =
        Obs.Registry.counter reg ~help:"connections shed under overload"
          "ripple_serve_connections_shed";
      deadlines_expired =
        Obs.Registry.counter reg ~help:"connections reaped by the idle deadline"
          "ripple_serve_deadlines_expired";
      client_retries =
        Obs.Registry.counter reg ~help:"duplicate sequenced frames (client retry evidence)"
          "ripple_serve_client_retries";
    }
  in
  let store = Option.map Snapshot.Store.open_dir config.state_dir in
  let t = { config; obs; store; sessions = []; stopping = false; cells } in
  (* Crash-only startup: every session with a loadable snapshot comes
     back — rolling window, ladder position, sequence horizon and the
     in-flight capture replayed from its journal. *)
  (match store with
  | None -> ()
  | Some store ->
    t.sessions <-
      List.filter_map
        (fun (state, journal) ->
          match session_of t state journal with
          | Some s ->
            Obs.Metric.incr cells.snapshots_recovered;
            Some s
          | None -> None)
        (Snapshot.Store.load_all store)
      |> List.sort (fun a b -> compare (Session.name a) (Session.name b)));
  Obs.Metric.set cells.sessions_gauge (Float.of_int (List.length t.sessions));
  t

let sessions t = t.sessions
let find_session t name = List.find_opt (fun s -> Session.name s = name) t.sessions

let register_session t name program =
  let s =
    Session.create ?store:t.store ~obs:t.obs ~options:t.config.options ~window:t.config.window
      ~reemit_every:t.config.reemit_every ~name ~program ()
  in
  t.sessions <-
    List.sort (fun a b -> compare (Session.name a) (Session.name b)) (s :: t.sessions);
  Obs.Metric.set t.cells.sessions_gauge (Float.of_int (List.length t.sessions));
  s

let snapshot_all t =
  List.iter
    (fun s ->
      Session.save s;
      if t.store <> None then Obs.Metric.incr t.cells.snapshots_written)
    t.sessions

module Conn = struct
  type conn = { mutable session : Session.t option }

  let create () = { session = None }

  let bind_session t conn app =
    match find_session t app with
    | Some s ->
      conn.session <- Some s;
      `Ok s
    | None ->
      if List.length t.sessions >= t.config.max_sessions then `Overloaded
      else begin
        match t.config.lookup app with
        | Some program ->
          let s = register_session t app program in
          conn.session <- Some s;
          `Ok s
        | None -> `Unknown
      end

  let with_fields extra json =
    match json with Json.Obj fields -> Json.Obj (extra @ fields) | json -> json

  let handle t conn frame =
    Obs.Metric.incr t.cells.frames;
    Obs.Span.with_span (Obs.Run.spans t.obs)
      ("serve/" ^ Protocol.frame_name frame)
      (fun () ->
        match frame with
        | Protocol.Hello_v { version; _ } when version < Protocol.version ->
          (Protocol.Error (Printf.sprintf "unsupported protocol version %d" version), `Keep)
        | Protocol.Hello_v { app; _ } -> begin
          match bind_session t conn app with
          | `Ok s ->
            ( Protocol.Ok
                (with_fields [ ("version", Json.Int Protocol.version) ] (Session.status s)),
              `Keep )
          | `Overloaded ->
            Obs.Metric.incr t.cells.connections_shed;
            (Protocol.Error "overloaded", `Keep)
          | `Unknown -> (Protocol.Error (Printf.sprintf "unknown app %S" app), `Keep)
        end
        | Protocol.Chunk_seq { seq; data } -> begin
          match conn.session with
          | None -> (Protocol.Error "chunk before hello", `Keep)
          | Some s -> begin
            match Session.apply_chunk s ~seq data with
            | `Applied decoded ->
              ( Protocol.Ok (Json.Obj [ ("decoded", Json.Int decoded); ("seq", Json.Int seq) ]),
                `Keep )
            | `Duplicate decoded ->
              Obs.Metric.incr t.cells.client_retries;
              ( Protocol.Ok
                  (Json.Obj
                     [
                       ("decoded", Json.Int decoded);
                       ("seq", Json.Int seq);
                       ("dup", Json.Bool true);
                     ]),
                `Keep )
            | `Gap expected ->
              (Protocol.Error (Printf.sprintf "gap: expected seq %d" expected), `Keep)
          end
        end
        | Protocol.Flush_seq { seq } -> begin
          match conn.session with
          | None -> (Protocol.Error "flush before hello", `Keep)
          | Some s -> begin
            match Session.apply_flush s ~seq with
            | `Applied ->
              if t.store <> None then Obs.Metric.incr t.cells.snapshots_written;
              (Protocol.Ok (with_fields [ ("seq", Json.Int seq) ] (Session.status s)), `Keep)
            | `Duplicate ->
              Obs.Metric.incr t.cells.client_retries;
              ( Protocol.Ok
                  (with_fields
                     [ ("seq", Json.Int seq); ("dup", Json.Bool true) ]
                     (Session.status s)),
                `Keep )
            | `Gap expected ->
              (Protocol.Error (Printf.sprintf "gap: expected seq %d" expected), `Keep)
          end
        end
        | Protocol.Status -> begin
          match conn.session with
          | None -> (Protocol.Error "status before hello", `Keep)
          | Some s -> (Protocol.Ok (Session.status s), `Keep)
        end
        | Protocol.Bye -> (Protocol.Ok (Json.Obj [ ("bye", Json.Bool true) ]), `Close))
end

let metrics_body t =
  Obs.Metric.incr t.cells.scrapes;
  Obs.Snapshot.to_openmetrics (Obs.Run.snapshot t.obs)

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                     *)

let listen_on host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  (fd, bound)

type kind =
  | Proto of { reader : Protocol.Reader.t; conn : Conn.conn }
  | Scrape of { req : Buffer.t }

(* One live connection in the event loop: a non-blocking fd, a buffered
   writer (replies queue here; the loop writes when the socket can take
   them), and an activity clock for the idle deadline. *)
type live = {
  fd : Unix.file_descr;
  kind : kind;
  out : Buffer.t;
  mutable sent : int;
  mutable closing : bool;  (* close once [out] drains *)
  mutable last_activity : float;
}

let http_response body =
  Printf.sprintf
    "HTTP/1.1 200 OK\r\n\
     Content-Type: application/openmetrics-text; version=1.0.0; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let http_unavailable =
  "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 10\r\nConnection: close\r\n\r\noverloaded"

(* Abuse bounds.  A peer that drips bytes that never complete a scrape
   request head, or that sends protocol frames without ever reading the
   replies, must not grow daemon memory without bound (each read also
   refreshes the idle clock, so the reaper alone cannot stop it). *)
let max_scrape_head = 8 * 1024
let max_out_buffer = 1 lsl 20

let set_connections t n = Obs.Metric.set t.cells.connections_gauge (Float.of_int n)

let queue_reply c reply =
  let buf = Buffer.create 256 in
  Protocol.write_reply buf reply;
  Buffer.add_buffer c.out buf

(* Drain as much of the pending output as the socket accepts right now.
   Returns [false] if the connection died. *)
let pump_out c =
  let total = Buffer.length c.out in
  if c.sent >= total then true
  else begin
    let data = Buffer.to_bytes c.out in
    let rec go () =
      if c.sent >= total then ()
      else
        match Unix.write c.fd data c.sent (total - c.sent) with
        | n ->
          c.sent <- c.sent + n;
          go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    match go () with
    | () ->
      if c.sent >= total then begin
        Buffer.clear c.out;
        c.sent <- 0
      end;
      true
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> false
  end

let serve_forever t =
  let serve_fd, port = listen_on t.config.host t.config.port in
  let metrics_fd, metrics_port = listen_on t.config.host t.config.metrics_port in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc "%d %d\n" port metrics_port;
      close_out oc)
    t.config.ready_file;
  (* A dead peer must surface as EPIPE on write, not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Crash-only shutdown: SIGTERM requests a graceful drain — flush
     buffered replies, snapshot every session, drop the ready file —
     and anything harder (SIGKILL) is recovered from the snapshots and
     journals instead. *)
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> t.stopping <- true))
   with Invalid_argument _ -> ());
  let conns = ref [] in
  let close_conn c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun o -> o != c) !conns;
    set_connections t (List.length !conns)
  in
  let add_conn c =
    Unix.set_nonblock c.fd;
    conns := c :: !conns;
    set_connections t (List.length !conns)
  in
  let now () = Unix.gettimeofday () in
  let live kind fd =
    { fd; kind; out = Buffer.create 256; sent = 0; closing = false; last_activity = now () }
  in
  let buf = Bytes.create 65536 in
  let handle_read c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> begin
      (* Peer closed its end.  A scrape that never sent a full request
         still gets the exposition (curl-style half-close tolerance);
         protocol connections just go away. *)
      match c.kind with
      | Scrape _ when Buffer.length c.out = 0 && not c.closing ->
        Buffer.add_string c.out (http_response (metrics_body t));
        c.closing <- true
      | _ -> close_conn c
    end
    | n -> begin
      c.last_activity <- now ();
      match c.kind with
      | Proto { reader; conn } ->
        Protocol.Reader.add reader buf n;
        let rec drain () =
          if not c.closing then
            match Protocol.Reader.pop_frame reader with
            | `Awaiting -> ()
            | `Corrupt msg ->
              queue_reply c (Protocol.Error msg);
              c.closing <- true
            | `Frame frame ->
              let reply, disposition = Conn.handle t conn frame in
              queue_reply c reply;
              if disposition = `Close then c.closing <- true else drain ()
        in
        drain ();
        (* Out-buffer cap: a peer that keeps sending frames but never
           reads replies is broken or hostile — drop it rather than
           queue without bound. *)
        if Buffer.length c.out - c.sent > max_out_buffer then close_conn c
      | Scrape { req } ->
        Buffer.add_subbytes req buf 0 n;
        if Buffer.length req > max_scrape_head then
          (* Request-head cap: a slow-loris peer streaming bytes that
             never contain the blank line would otherwise grow [req]
             (and refresh the idle clock) forever. *)
          close_conn c
        else begin
          let s = Buffer.contents req in
          (* Serve once the request head is complete; one response per
             connection, close after. *)
          let complete =
            let rec find i =
              i + 3 < String.length s
              && (String.sub s i 4 = "\r\n\r\n" || find (i + 1))
            in
            String.length s >= 4 && find 0
          in
          if complete && Buffer.length c.out = 0 then begin
            Buffer.add_string c.out (http_response (metrics_body t));
            c.closing <- true
          end
        end
    end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn c
  in
  let accept_loop lfd make_overloaded make_conn =
    let rec go () =
      match Unix.accept lfd with
      | cfd, _ ->
        if List.length !conns >= t.config.max_conns then begin
          (* Load shedding: answer, don't hang — the reply is queued and
             the connection closes as soon as it drains. *)
          Obs.Metric.incr t.cells.connections_shed;
          let c = make_overloaded cfd in
          c.closing <- true;
          add_conn c
        end
        else add_conn (make_conn cfd);
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        (* Out of descriptors: shed by not accepting; the idle reaper
           frees capacity rather than the daemon crashing. *)
        Obs.Metric.incr t.cells.connections_shed
    in
    go ()
  in
  let proto_conn cfd = live (Proto { reader = Protocol.Reader.create (); conn = Conn.create () }) cfd in
  let scrape_conn cfd = live (Scrape { req = Buffer.create 256 }) cfd in
  let overloaded_proto cfd =
    let c = proto_conn cfd in
    queue_reply c (Protocol.Error "overloaded");
    c
  in
  let overloaded_scrape cfd =
    let c = scrape_conn cfd in
    Buffer.add_string c.out http_unavailable;
    c
  in
  while not t.stopping do
    let pending c = Buffer.length c.out > c.sent in
    let rfds = serve_fd :: metrics_fd :: List.map (fun c -> c.fd) !conns in
    let wfds = List.filter_map (fun c -> if pending c then Some c.fd else None) !conns in
    let timeout = if !conns = [] then -1.0 else 0.1 in
    match Unix.select rfds wfds [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      if List.mem serve_fd readable then accept_loop serve_fd overloaded_proto proto_conn;
      if List.mem metrics_fd readable then accept_loop metrics_fd overloaded_scrape scrape_conn;
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.fd = fd) !conns with
          | Some c when fd <> serve_fd && fd <> metrics_fd -> handle_read c
          | _ -> ())
        readable;
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.fd = fd) !conns with
          | Some c -> if not (pump_out c) then close_conn c
          | None -> ())
        writable;
      (* Opportunistic write for replies queued this tick, so a request
         served in one round trip doesn't wait for the next select. *)
      List.iter (fun c -> if pending c then ignore (pump_out c : bool)) !conns;
      List.iter (fun c -> if c.closing && not (pending c) then close_conn c) !conns;
      (* Idle deadline: a connected-but-silent peer (a stuck scraper, a
         wedged agent) is reaped instead of holding state forever. *)
      if t.config.idle_timeout > 0.0 then begin
        let horizon = now () -. t.config.idle_timeout in
        List.iter
          (fun c ->
            if c.last_activity < horizon then begin
              Obs.Metric.incr t.cells.deadlines_expired;
              close_conn c
            end)
          !conns
      end
  done;
  (* Graceful drain: push out whatever replies are still buffered (best
     effort, bounded), make every session durable, and withdraw the
     ready-file handshake so a supervisor never reads a stale port. *)
  let deadline = Unix.gettimeofday () +. 1.0 in
  List.iter
    (fun c ->
      let rec flush () =
        if Buffer.length c.out > c.sent && Unix.gettimeofday () < deadline then
          if pump_out c then begin
            if Buffer.length c.out > c.sent then begin
              ignore
                (try Unix.select [] [ c.fd ] [] 0.05
                 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []));
              flush ()
            end
          end
      in
      flush ();
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    !conns;
  snapshot_all t;
  (try Unix.close serve_fd with Unix.Unix_error _ -> ());
  (try Unix.close metrics_fd with Unix.Unix_error _ -> ());
  Option.iter (fun path -> try Sys.remove path with Sys_error _ -> ()) t.config.ready_file
