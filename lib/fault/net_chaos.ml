module W = Ripple_workloads
module Pt = Ripple_trace.Pt
module Pipeline = Ripple_core.Pipeline
module Server = Ripple_serve.Server
module Client = Ripple_serve.Client
module Protocol = Ripple_serve.Protocol
module Json = Ripple_util.Json
module Table = Ripple_util.Table

type outcome = {
  label : string;
  fault : Net_fault.t option;  (* None for the kill -9 recovery cell *)
  pushed : bool;
  attempts : int;  (* 0 when the push never succeeded *)
  equivalent : bool;  (* live session state = uninterrupted control *)
  daemon_clean : bool;  (* every daemon incarnation drained with exit 0 *)
  detail : string;  (* failure explanation, "" when clean *)
}

type report = { cells : outcome list; crashes : int; losses : int }

(* ------------------------------ plumbing ----------------------------- *)

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let write_all fd b pos len =
  let sent = ref pos in
  while !sent < pos + len do
    sent := !sent + Unix.write fd b !sent (pos + len - !sent)
  done

let fork_child f =
  match Unix.fork () with
  | 0 ->
    let code = try f () with _ -> 2 in
    (* _exit: the child must not run the parent's at_exit hooks (spill
       sweeps would unlink files the parent still owns). *)
    Unix._exit code
  | pid -> pid

(* SIGTERM, grace period, then SIGKILL.  Returns true iff the process
   drained cleanly (exit 0). *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        false
      end
      else begin
        Unix.sleepf 0.02;
        wait ()
      end
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  wait ()

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let wait_for ?(timeout = 10.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let read_ready path =
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  match String.split_on_char ' ' (String.trim line) with
  | port :: _ -> int_of_string port
  | [] -> failwith "empty ready file"

(* Reserve an ephemeral port by binding and releasing it: both daemon
   incarnations in the recovery cell must listen on the SAME port so
   the pusher's retry loop finds the restarted one. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> assert false
  in
  Unix.close fd;
  port

(* ------------------------------- proxy ------------------------------- *)

(* Sequential TCP relay: each inbound connection is forwarded to the
   daemon, with the FIRST connection's client->server frames run
   through the fault plan (retry connections pass clean — a fault is
   one event, recovery must finish the job).  That stream is split with
   the daemon's own {!Protocol.Reader} and each frame re-encoded with
   {!Protocol.write_frame}, which gives back the client's bytes, since
   the client wrote them with the same encoder; a stream the reader
   calls corrupt closes the link. *)
let run_proxy ~server_port ~ready_path ~seed ~fault ~victim () =
  ignore_sigpipe ();
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 16;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let oc = open_out ready_path in
  Printf.fprintf oc "%d\n" port;
  close_out oc;
  let buf = Bytes.create 65536 in
  let conn_index = ref 0 in
  let frame_index = ref 0 in
  while true do
    let cfd, _ = Unix.accept lfd in
    let mangle = !conn_index = 0 in
    incr conn_index;
    (match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> Unix.close cfd
    | sfd -> (
      match Unix.connect sfd (Unix.ADDR_INET (Unix.inet_addr_loopback, server_port)) with
      | exception Unix.Unix_error _ ->
        Unix.close cfd;
        Unix.close sfd
      | () ->
        let reader = Protocol.Reader.create () in
        let alive = ref true in
        (try
           while !alive do
             match Unix.select [ cfd; sfd ] [] [] (-1.0) with
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
             | readable, _, _ ->
               (if List.mem sfd readable then
                  match Unix.read sfd buf 0 (Bytes.length buf) with
                  | 0 -> alive := false
                  | n -> write_all cfd buf 0 n);
               if !alive && List.mem cfd readable then
                 match Unix.read cfd buf 0 (Bytes.length buf) with
                 | 0 -> alive := false
                 | n ->
                   if not mangle then write_all sfd buf 0 n
                   else begin
                     Protocol.Reader.add reader buf n;
                     let rec drain () =
                       if !alive then
                         match Protocol.Reader.pop_frame reader with
                         | `Awaiting -> ()
                         | `Corrupt _ -> alive := false
                         | `Frame f ->
                           let frame =
                             let b = Buffer.create 64 in
                             Protocol.write_frame b f;
                             Buffer.to_bytes b
                           in
                           let index = !frame_index in
                           incr frame_index;
                           (match Net_fault.plan ~seed fault ~victim ~index frame with
                           | Net_fault.Deliver runs ->
                             List.iter (fun r -> write_all sfd r 0 (Bytes.length r)) runs;
                             drain ()
                           | Net_fault.Deliver_then_cut runs ->
                             List.iter (fun r -> write_all sfd r 0 (Bytes.length r)) runs;
                             alive := false
                           | Net_fault.Delay (d, r) ->
                             Unix.sleepf d;
                             write_all sfd r 0 (Bytes.length r);
                             drain ())
                     in
                     drain ()
                   end
           done
         with Unix.Unix_error _ -> ());
        (try Unix.close cfd with Unix.Unix_error _ -> ());
        (try Unix.close sfd with Unix.Unix_error _ -> ())))
  done;
  0

(* ------------------------------ harness ------------------------------ *)

(* Pushes send 1 KiB chunks to a daemon with a 100 k-block window. *)
let chunk = 1024

let harness_config =
  {
    Server.default_config with
    Server.port = 0;
    window = 100_000;
    options =
      {
        Pipeline.Options.default with
        Pipeline.Options.degrade = true;
        prefetch = Pipeline.No_prefetch;
      };
    ready_file = None;
    state_dir = None;
    idle_timeout = 30.0;
  }

let expect_ok = function
  | Protocol.Ok json -> json
  | Protocol.Error msg -> failwith ("chaos control: " ^ msg)

(* The uninterrupted run, in-process: what the live daemon's session
   must be indistinguishable from. *)
let control_status ~config ~app data =
  let t = Server.create { config with Server.state_dir = None; ready_file = None } in
  let conn = Server.Conn.create () in
  let handle frame = fst (Server.Conn.handle t conn frame) in
  ignore (expect_ok (handle (Protocol.Hello_v { app; version = Protocol.version })) : Json.t);
  let len = Bytes.length data in
  let n = (len + chunk - 1) / chunk in
  for i = 0 to n - 1 do
    let piece = Bytes.sub data (i * chunk) (min chunk (len - (i * chunk))) in
    ignore (expect_ok (handle (Protocol.Chunk_seq { seq = i; data = piece })) : Json.t)
  done;
  ignore (expect_ok (handle (Protocol.Flush_seq { seq = n })) : Json.t);
  expect_ok (handle Protocol.Status)

let live_status ~port ~app =
  let c = Client.connect ~timeout:5.0 ~host:"127.0.0.1" ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      ignore
        (expect_ok (Client.request c (Protocol.Hello_v { app; version = Protocol.version }))
          : Json.t);
      expect_ok (Client.request c Protocol.Status))

let spawn_daemon ~config = fork_child (fun () -> Server.serve_forever (Server.create config); 0)

let await_ready path =
  if not (wait_for (fun () -> Sys.file_exists path && (Unix.stat path).Unix.st_size > 0)) then
    failwith "daemon never became ready";
  read_ready path

(* One fault cell: daemon + proxy + resumable push, then verdicts. *)
let run_fault_cell ~config ~app ~seed ~timeout ~data fault =
  let dir = fresh_dir "ripple-net-chaos" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ready = Filename.concat dir "ready" in
      let daemon = spawn_daemon ~config:{ config with Server.ready_file = Some ready } in
      match await_ready ready with
      | exception e ->
        kill9 daemon;
        raise e
      | server_port ->
        let n_chunks = (Bytes.length data + chunk - 1) / chunk in
        (* Victim: always a sequenced chunk frame (hello is frame 0) —
           the dedup story under test lives there. *)
        let victim =
          1 + (Ripple_util.Prng.int (Ripple_util.Prng.create ~seed) (max 1 n_chunks))
        in
        let proxy_ready = Filename.concat dir "proxy-ready" in
        let proxy =
          fork_child (run_proxy ~server_port ~ready_path:proxy_ready ~seed ~fault ~victim)
        in
        Fun.protect
          ~finally:(fun () -> kill9 proxy)
          (fun () ->
            if not (wait_for (fun () -> Sys.file_exists proxy_ready)) then
              failwith "proxy never became ready";
            let proxy_port = read_ready proxy_ready in
            let push =
              Client.push_with_retries ~attempts:10 ~timeout ~backoff:0.05 ~seed ~chunk
                ~host:"127.0.0.1" ~port:proxy_port ~app data
            in
            let control = control_status ~config ~app data in
            let pushed, attempts, detail =
              match push with
              | Ok { Client.attempts_used; _ } -> (true, attempts_used, "")
              | Error msg -> (false, 0, msg)
            in
            let equivalent, detail =
              if not pushed then (false, detail)
              else
                match live_status ~port:server_port ~app with
                | live ->
                  if Json.equal control live then (true, "")
                  else
                    ( false,
                      Printf.sprintf "state diverged: control=%s live=%s" (Json.to_string control)
                        (Json.to_string live) )
                | exception e -> (false, "status check failed: " ^ Printexc.to_string e)
            in
            let daemon_clean = terminate daemon in
            {
              label = Net_fault.to_string fault;
              fault = Some fault;
              pushed;
              attempts;
              equivalent;
              daemon_clean;
              detail;
            }))

(* The recovery cell: kill -9 mid-capture, restart on the same state
   directory, and let the SAME push_with_retries call finish the job —
   then the recovered session must be byte-equivalent to the control.
   With [kills > 1], the extra strikes land right after each recovery,
   proving a freshly restored daemon is itself recoverable (restore
   must never clobber the durable state it just loaded). *)
let run_recover_cell ~config ~app ~seed ~label ~kills ~data =
  let dir = fresh_dir "ripple-net-chaos" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let state = Filename.concat dir "state" in
      let port = free_port () in
      let durable ready =
        {
          config with
          Server.port;
          state_dir = Some state;
          ready_file = Some (Filename.concat dir ready);
        }
      in
      let daemon_a = spawn_daemon ~config:(durable "ready-0") in
      ignore (await_ready (Filename.concat dir "ready-0") : int);
      let status_path = Filename.concat dir "push-status" in
      (* The pusher lives in its own process so the parent is free to
         murder and resurrect the daemon under its feet. *)
      let pusher =
        fork_child (fun () ->
            ignore_sigpipe ();
            match
              Client.push_with_retries ~attempts:20 ~timeout:2.0 ~backoff:0.1 ~seed ~chunk
                ~host:"127.0.0.1" ~port ~app data
            with
            | Ok { Client.status; attempts_used } ->
              let oc = open_out status_path in
              output_string oc (Json.to_string (Json.Obj [ ("status", status) ]));
              close_out oc;
              min attempts_used 255
            | Error _ -> 201)
      in
      let journal = Filename.concat state (app ^ ".journal") in
      let pusher_done () = match Unix.waitpid [ Unix.WNOHANG ] pusher with 0, _ -> false | _ -> true in
      (* Strike once the journal proves a chunk is in flight (or concede
         the race if the push already finished — recovery then starts
         from the final snapshot, which is still a valid recovery). *)
      let caught_midair =
        wait_for ~timeout:15.0 (fun () -> Sys.file_exists journal || pusher_done ())
        && Sys.file_exists journal
      in
      kill9 daemon_a;
      let rec resurrect i daemon =
        if i > kills then daemon
        else begin
          kill9 daemon;
          let ready = Printf.sprintf "ready-%d" i in
          let next = spawn_daemon ~config:(durable ready) in
          ignore (await_ready (Filename.concat dir ready) : int);
          resurrect (i + 1) next
        end
      in
      (* daemon_a is already dead; spawn incarnation 1, then kill and
         respawn once per remaining strike. *)
      let daemon_b = spawn_daemon ~config:(durable "ready-1") in
      ignore (await_ready (Filename.concat dir "ready-1") : int);
      let daemon_b = resurrect 2 daemon_b in
      let pusher_code =
        if pusher_done () then 0
        else
          match Unix.waitpid [] pusher with
          | _, Unix.WEXITED c -> c
          | _, _ -> 202
          | exception Unix.Unix_error _ -> 202
      in
      let pushed = Sys.file_exists status_path && pusher_code < 200 in
      let control = control_status ~config ~app data in
      let equivalent, detail =
        if not pushed then (false, Printf.sprintf "pusher failed (code %d)" pusher_code)
        else
          match live_status ~port ~app with
          | live ->
            if Json.equal control live then
              (true, if caught_midair then "" else "note: push completed before kill -9")
            else
              ( false,
                Printf.sprintf "recovered state diverged: control=%s live=%s"
                  (Json.to_string control) (Json.to_string live) )
          | exception e -> (false, "status check failed: " ^ Printexc.to_string e)
      in
      let daemon_clean = terminate daemon_b in
      {
        label;
        fault = None;
        pushed;
        attempts = (if pushed then 1 else 0);
        equivalent;
        daemon_clean;
        detail;
      })

let default_faults ~stall_delay =
  [
    Net_fault.Net_clean;
    Net_fault.Torn_frame;
    Net_fault.Corrupt_length;
    Net_fault.Mid_frame_cut;
    Net_fault.Duplicate_frame;
    Net_fault.Stall_frame { delay = stall_delay };
  ]

let run ?(app = "kafka") ?(n_instrs = 40_000) ?(seed = 20240) ?(timeout = 0.8)
    ?(stall_delay = 2.0) () =
  ignore_sigpipe ();
  let model =
    match W.Apps.by_name app with
    | Some m -> m
    | None -> failwith (Printf.sprintf "net chaos: unknown app %S" app)
  in
  let workload = W.Cfg_gen.generate model in
  let trace = W.Executor.run workload ~input:W.Executor.train ~n_instrs in
  let data = Pt.encode workload.W.Cfg_gen.program trace in
  let config = harness_config in
  let cell_of fault =
    let seed =
      Ripple_util.Prng.seed_of_string
        (Printf.sprintf "%s/%s/%d" app (Net_fault.to_string fault) seed)
    in
    match run_fault_cell ~config ~app ~seed ~timeout ~data fault with
    | cell -> cell
    | exception e ->
      {
        label = Net_fault.to_string fault;
        fault = Some fault;
        pushed = false;
        attempts = 0;
        equivalent = false;
        daemon_clean = false;
        detail = "harness: " ^ Printexc.to_string e;
      }
  in
  let cells = List.map cell_of (default_faults ~stall_delay) in
  let recover ~label ~kills =
    match run_recover_cell ~config ~app ~seed ~label ~kills ~data with
    | cell -> cell
    | exception e ->
      {
        label;
        fault = None;
        pushed = false;
        attempts = 0;
        equivalent = false;
        daemon_clean = false;
        detail = "harness: " ^ Printexc.to_string e;
      }
  in
  let cells =
    cells
    @ [
        recover ~label:"kill9-recover" ~kills:1;
        recover ~label:"kill9x2-recover" ~kills:2;
      ]
  in
  let crashes =
    List.length (List.filter (fun c -> (not c.pushed) || not c.daemon_clean) cells)
  in
  let losses = List.length (List.filter (fun c -> c.pushed && not c.equivalent) cells) in
  { cells; crashes; losses }

(* ------------------------------ reporting ---------------------------- *)

let cell_to_json c =
  Json.Obj
    [
      ("cell", Json.String c.label);
      ("fault", match c.fault with Some f -> Net_fault.to_json f | None -> Json.Null);
      ("pushed", Json.Bool c.pushed);
      ("attempts", Json.Int c.attempts);
      ("equivalent", Json.Bool c.equivalent);
      ("daemon_clean", Json.Bool c.daemon_clean);
      ("detail", Json.String c.detail);
    ]

let report_to_json r =
  Json.Obj
    [
      ("cells", Json.List (List.map cell_to_json r.cells));
      ("n_cells", Json.Int (List.length r.cells));
      ("crashes", Json.Int r.crashes);
      ("losses", Json.Int r.losses);
    ]

let print_summary r =
  let table =
    Table.create ~title:"network chaos"
      ~columns:
        [
          ("cell", Table.Left);
          ("pushed", Table.Left);
          ("attempts", Table.Right);
          ("state", Table.Left);
          ("daemon", Table.Left);
          ("verdict", Table.Left);
        ]
  in
  List.iter
    (fun c ->
      Table.add_row table
        [
          c.label;
          (if c.pushed then "yes" else "NO");
          string_of_int c.attempts;
          (if c.equivalent then "equivalent" else "DIVERGED");
          (if c.daemon_clean then "clean" else "DIRTY");
          (if c.pushed && c.equivalent && c.daemon_clean then "ok"
           else List.hd (String.split_on_char '\n' (if c.detail = "" then "failed" else c.detail)));
        ])
    r.cells;
  Table.print table;
  Printf.printf "%d cells, %d crashes, %d state losses\n%!" (List.length r.cells) r.crashes
    r.losses

let exit_code r = if r.crashes > 0 then 2 else if r.losses > 0 then 1 else 0
