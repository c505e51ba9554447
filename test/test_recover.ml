(* The crash-recovery acceptance test, end to end with real processes:
   a durable daemon is killed -9 mid-capture, restarted on the same
   state directory, and the resumed push must leave the session
   byte-identical to one that was never interrupted.

   This lives in its own executable because it forks the daemon, and
   OCaml forbids [Unix.fork] in a process that has ever spawned domains
   — which test_main has, via the experiment-pool suites. *)

module W = Ripple_workloads
module Pt = Ripple_trace.Pt
module Core = Ripple_core
module Json = Ripple_util.Json
module Protocol = Ripple_serve.Protocol
module Server = Ripple_serve.Server
module Client = Ripple_serve.Client

let checkb = Alcotest.check Alcotest.bool

let serve_options =
  { Core.Pipeline.Options.default with degrade = true; prefetch = Core.Pipeline.No_prefetch }

let clean_capture =
  lazy
    (let w = W.Cfg_gen.generate { W.Apps.kafka with W.App_model.seed = 5 } in
     let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:40_000 in
     (w.W.Cfg_gen.program, Pt.encode w.W.Cfg_gen.program trace))

(* The ~1.1 KB kafka capture split small enough that "half pushed"
   means a real mid-capture window. *)
let chunks_of ?(chunk = 97) data =
  let len = Bytes.length data in
  let n = (len + chunk - 1) / chunk in
  List.init n (fun i -> Bytes.sub data (i * chunk) (min chunk (len - (i * chunk))))

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ripple-test-recover-%d-%d" (Unix.getpid ()) !n)
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

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> assert false
  in
  Unix.close fd;
  port

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

let spawn_daemon config =
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Server.serve_forever (Server.create config);
        0
      with _ -> 2
    in
    Unix._exit code
  | pid -> pid

(* Status comparison strips nothing: every field — profile digest,
   ladder level, counters, sequence horizon — must match. *)
let check_status_equal label control live =
  if not (Json.equal control live) then
    Alcotest.failf "%s: control=%s live=%s" label (Json.to_string control) (Json.to_string live)

let test_kill9_recover () =
  let program, data = Lazy.force clean_capture in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let state = Filename.concat dir "state" in
      let port = free_port () in
      let config ready =
        {
          Server.default_config with
          Server.options = serve_options;
          port;
          state_dir = Some state;
          ready_file = Some (Filename.concat dir ready);
          lookup = (fun _ -> Some program);
        }
      in
      let await ready =
        let path = Filename.concat dir ready in
        if not (wait_for (fun () -> Sys.file_exists path && (Unix.stat path).Unix.st_size > 0))
        then Alcotest.fail "daemon never became ready"
      in
      (* Control: the same frames against an in-process server. *)
      let control =
        let t =
          Server.create
            { (config "unused") with Server.port = 0; state_dir = None; ready_file = None }
        in
        let conn = Server.Conn.create () in
        let ok label = function
          | Protocol.Ok json, _ -> json
          | Protocol.Error msg, _ -> Alcotest.failf "control %s: %s" label msg
        in
        ignore
          (ok "hello" (Server.Conn.handle t conn (Protocol.Hello_v { app = "kafka"; version = 2 })));
        List.iteri
          (fun i c ->
            ignore (ok "chunk" (Server.Conn.handle t conn (Protocol.Chunk_seq { seq = i; data = c }))))
          (chunks_of data);
        ignore
          (ok "flush"
             (Server.Conn.handle t conn (Protocol.Flush_seq { seq = List.length (chunks_of data) })));
        ok "status" (Server.Conn.handle t conn Protocol.Status)
      in
      let daemon_a = spawn_daemon (config "ready-a") in
      await "ready-a";
      let ok label = function
        | Protocol.Ok json -> json
        | Protocol.Error msg -> Alcotest.failf "%s: %s" label msg
      in
      let chunks = chunks_of data in
      let k = List.length chunks / 2 in
      (* Half the capture lands durably... *)
      let c1 = Client.connect ~timeout:10.0 ~host:"127.0.0.1" ~port () in
      ignore (ok "hello a" (Client.request c1 (Protocol.Hello_v { app = "kafka"; version = 2 })));
      List.iteri
        (fun i c ->
          if i < k then
            ignore (ok "chunk a" (Client.request c1 (Protocol.Chunk_seq { seq = i; data = c }))))
        chunks;
      (* ...then the daemon dies the hard way, mid-capture. *)
      Unix.kill daemon_a Sys.sigkill;
      ignore (Unix.waitpid [] daemon_a);
      Client.close c1;
      let daemon_b = spawn_daemon (config "ready-b") in
      await "ready-b";
      (* The resumed push learns the recovered horizon and finishes the
         capture without replaying what survived. *)
      let c2 = Client.connect ~timeout:10.0 ~host:"127.0.0.1" ~port () in
      let hello = ok "hello b" (Client.request c2 (Protocol.Hello_v { app = "kafka"; version = 2 })) in
      checkb "recovery preserved the sequence horizon" true
        (Json.member "next_seq" hello = Some (Json.Int k));
      List.iteri
        (fun i c ->
          if i >= k then
            ignore (ok "chunk b" (Client.request c2 (Protocol.Chunk_seq { seq = i; data = c }))))
        chunks;
      ignore (ok "flush b" (Client.request c2 (Protocol.Flush_seq { seq = List.length chunks })));
      let live = ok "status b" (Client.request c2 Protocol.Status) in
      Client.close c2;
      check_status_equal "kill -9 recovery" control live;
      (* Graceful drain: SIGTERM exits 0 and withdraws the ready file. *)
      Unix.kill daemon_b Sys.sigterm;
      (match Unix.waitpid [] daemon_b with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "SIGTERM drain must exit 0");
      checkb "ready file removed on drain" false
        (Sys.file_exists (Filename.concat dir "ready-b")))

(* A freshly restored daemon must itself be recoverable: restore must
   never clobber the durable state it just loaded.  One full capture is
   flushed (a closed generation on disk), a second is half pushed, then
   the daemon is killed -9 TWICE — the second strike right after
   recovery, before any new flush.  The third incarnation must still
   hold the generation, the ladder counters and the sequence horizon. *)
let test_double_kill9_recover () =
  let program, data = Lazy.force clean_capture in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let state = Filename.concat dir "state" in
      let port = free_port () in
      let config ready =
        {
          Server.default_config with
          Server.options = serve_options;
          port;
          state_dir = Some state;
          ready_file = Some (Filename.concat dir ready);
          lookup = (fun _ -> Some program);
        }
      in
      let await ready =
        let path = Filename.concat dir ready in
        if not (wait_for (fun () -> Sys.file_exists path && (Unix.stat path).Unix.st_size > 0))
        then Alcotest.fail "daemon never became ready"
      in
      let chunks = chunks_of data in
      let n = List.length chunks in
      (* Two captures back to back: seqs 0..n-1, flush n, n+1..2n, flush 2n+1. *)
      let control =
        let t =
          Server.create
            { (config "unused") with Server.port = 0; state_dir = None; ready_file = None }
        in
        let conn = Server.Conn.create () in
        let ok label = function
          | Protocol.Ok json, _ -> json
          | Protocol.Error msg, _ -> Alcotest.failf "control %s: %s" label msg
        in
        ignore
          (ok "hello" (Server.Conn.handle t conn (Protocol.Hello_v { app = "kafka"; version = 2 })));
        List.iteri
          (fun i c ->
            ignore (ok "chunk" (Server.Conn.handle t conn (Protocol.Chunk_seq { seq = i; data = c }))))
          chunks;
        ignore (ok "flush" (Server.Conn.handle t conn (Protocol.Flush_seq { seq = n })));
        List.iteri
          (fun i c ->
            ignore
              (ok "chunk" (Server.Conn.handle t conn (Protocol.Chunk_seq { seq = n + 1 + i; data = c }))))
          chunks;
        ignore (ok "flush" (Server.Conn.handle t conn (Protocol.Flush_seq { seq = (2 * n) + 1 })));
        ok "status" (Server.Conn.handle t conn Protocol.Status)
      in
      let ok label = function
        | Protocol.Ok json -> json
        | Protocol.Error msg -> Alcotest.failf "%s: %s" label msg
      in
      let daemon_a = spawn_daemon (config "ready-a") in
      await "ready-a";
      (* Capture one lands and flushes; capture two gets halfway. *)
      let k = n / 2 in
      let c1 = Client.connect ~timeout:10.0 ~host:"127.0.0.1" ~port () in
      ignore (ok "hello a" (Client.request c1 (Protocol.Hello_v { app = "kafka"; version = 2 })));
      List.iteri
        (fun i c -> ignore (ok "chunk a" (Client.request c1 (Protocol.Chunk_seq { seq = i; data = c }))))
        chunks;
      ignore (ok "flush a" (Client.request c1 (Protocol.Flush_seq { seq = n })));
      List.iteri
        (fun i c ->
          if i < k then
            ignore
              (ok "chunk a2" (Client.request c1 (Protocol.Chunk_seq { seq = n + 1 + i; data = c }))))
        chunks;
      Unix.kill daemon_a Sys.sigkill;
      ignore (Unix.waitpid [] daemon_a);
      Client.close c1;
      (* Second incarnation recovers — and dies before any new traffic. *)
      let daemon_b = spawn_daemon (config "ready-b") in
      await "ready-b";
      Unix.kill daemon_b Sys.sigkill;
      ignore (Unix.waitpid [] daemon_b);
      (* Third incarnation must recover the same session. *)
      let daemon_c = spawn_daemon (config "ready-c") in
      await "ready-c";
      let c2 = Client.connect ~timeout:10.0 ~host:"127.0.0.1" ~port () in
      let hello = ok "hello c" (Client.request c2 (Protocol.Hello_v { app = "kafka"; version = 2 })) in
      checkb "double recovery preserved the sequence horizon" true
        (Json.member "next_seq" hello = Some (Json.Int (n + 1 + k)));
      List.iteri
        (fun i c ->
          if i >= k then
            ignore
              (ok "chunk c" (Client.request c2 (Protocol.Chunk_seq { seq = n + 1 + i; data = c }))))
        chunks;
      ignore (ok "flush c" (Client.request c2 (Protocol.Flush_seq { seq = (2 * n) + 1 })));
      let live = ok "status c" (Client.request c2 Protocol.Status) in
      Client.close c2;
      check_status_equal "double kill -9 recovery" control live;
      Unix.kill daemon_c Sys.sigterm;
      match Unix.waitpid [] daemon_c with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "SIGTERM drain must exit 0")

(* The ugliest horizon failure: the daemon dies mid-push and comes back
   with its state directory WIPED, so its hello reports a next_seq
   below the client's pinned base.  The resumable push must re-pin and
   restart from chunk 0 — not retry a sequence range the server will
   reject as a gap forever — and the final session must match an
   uninterrupted push into a fresh daemon. *)
let test_state_loss_rebase () =
  let program, data = Lazy.force clean_capture in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let state = Filename.concat dir "state" in
      let port = free_port () in
      let config ready =
        {
          Server.default_config with
          Server.options = serve_options;
          port;
          state_dir = Some state;
          ready_file = Some (Filename.concat dir ready);
          lookup = (fun _ -> Some program);
        }
      in
      let await ready =
        let path = Filename.concat dir ready in
        if not (wait_for (fun () -> Sys.file_exists path && (Unix.stat path).Unix.st_size > 0))
        then Alcotest.fail "daemon never became ready"
      in
      let daemon_a = spawn_daemon (config "ready-a") in
      await "ready-a";
      let status_path = Filename.concat dir "push-status" in
      let pusher =
        match Unix.fork () with
        | 0 ->
          let code =
            match
              Client.push_with_retries ~attempts:20 ~timeout:2.0 ~backoff:0.1 ~seed:7 ~chunk:97
                ~host:"127.0.0.1" ~port ~app:"kafka" data
            with
            | Ok _ ->
              let oc = open_out status_path in
              output_string oc "ok";
              close_out oc;
              0
            | Error _ -> 201
            | exception _ -> 202
          in
          Unix._exit code
        | pid -> pid
      in
      let journal = Filename.concat state "kafka.journal" in
      let pusher_reaped = ref false in
      let pusher_done () =
        !pusher_reaped
        ||
        match Unix.waitpid [ Unix.WNOHANG ] pusher with
        | 0, _ -> false
        | _ ->
          pusher_reaped := true;
          true
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          pusher_reaped := true;
          true
      in
      let caught_midair =
        wait_for ~timeout:15.0 (fun () -> Sys.file_exists journal || pusher_done ())
        && Sys.file_exists journal
      in
      Unix.kill daemon_a Sys.sigkill;
      ignore (Unix.waitpid [] daemon_a);
      (* Distinguish "killed mid-push" from "push completed against A
         just before the kill": in the latter case the pusher exits
         almost immediately and there is nothing to rebase. *)
      Unix.sleepf 0.05;
      let outran = (not caught_midair) || pusher_done () in
      if outran then begin
        (* The push outran the kill: nothing to assert this run. *)
        if not (pusher_done ()) then ignore (Unix.waitpid [] pusher)
      end
      else begin
        (* The durable state vanishes with the daemon: the restarted
           incarnation knows nothing of the pinned base. *)
        rm_rf state;
        let daemon_b = spawn_daemon (config "ready-b") in
        await "ready-b";
        let pusher_code =
          match Unix.waitpid [] pusher with
          | _, Unix.WEXITED c -> c
          | _, _ -> 203
        in
        checkb "push succeeded across the state loss" true
          (pusher_code = 0 && Sys.file_exists status_path);
        (* Control: the full push into a fresh daemon, in-process. *)
        let control =
          let t =
            Server.create
              { (config "unused") with Server.port = 0; state_dir = None; ready_file = None }
          in
          let conn = Server.Conn.create () in
          let ok label = function
            | Protocol.Ok json, _ -> json
            | Protocol.Error msg, _ -> Alcotest.failf "control %s: %s" label msg
          in
          ignore
            (ok "hello"
               (Server.Conn.handle t conn (Protocol.Hello_v { app = "kafka"; version = 2 })));
          let chunks = chunks_of data in
          List.iteri
            (fun i c ->
              ignore
                (ok "chunk" (Server.Conn.handle t conn (Protocol.Chunk_seq { seq = i; data = c }))))
            chunks;
          ignore
            (ok "flush"
               (Server.Conn.handle t conn (Protocol.Flush_seq { seq = List.length chunks })));
          ok "status" (Server.Conn.handle t conn Protocol.Status)
        in
        let ok label = function
          | Protocol.Ok json -> json
          | Protocol.Error msg -> Alcotest.failf "%s: %s" label msg
        in
        let c = Client.connect ~timeout:10.0 ~host:"127.0.0.1" ~port () in
        ignore
          (ok "hello live" (Client.request c (Protocol.Hello_v { app = "kafka"; version = 2 })));
        let live = ok "status live" (Client.request c Protocol.Status) in
        Client.close c;
        check_status_equal "rebased push after state loss" control live;
        Unix.kill daemon_b Sys.sigterm;
        match Unix.waitpid [] daemon_b with
        | _, Unix.WEXITED 0 -> ()
        | _, _ -> Alcotest.fail "SIGTERM drain must exit 0"
      end)

let () =
  Alcotest.run "ripple-recover"
    [
      ( "recover",
        [
          Alcotest.test_case "kill -9 then recover" `Slow test_kill9_recover;
          Alcotest.test_case "kill -9 twice then recover" `Slow test_double_kill9_recover;
          Alcotest.test_case "state loss mid-push rebases" `Slow test_state_loss_rebase;
        ] );
    ]
