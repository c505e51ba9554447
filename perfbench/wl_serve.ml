(* serve: the durable daemon ([ripple-sim serve --state-dir], default
   denylist ladder) on loopback.  One closed-loop client on one
   connection pushes v2 sequenced kafka PT captures in 4 KiB chunks into
   a rolling window of about two captures; every sixth capture is
   truncated, so the ladder cycles full -> safe-only -> full.  The client
   scrapes /metrics after each flush.  Unlike verify, core and analysis
   run once per flush over a rolling profile on the daemon's
   single-threaded event loop, beside the trace session decoder and the
   journal and snapshot writes. *)

module W = Ripple_workloads
module Program = Ripple_isa.Program
module Pt = Ripple_trace.Pt
module Bb_trace = Ripple_trace.Bb_trace
module Belady = Ripple_cache.Belady
module Access_stream = Ripple_cache.Access_stream
module Int_stream = Ripple_util.Int_stream
module Json = Ripple_util.Json
module Config = Ripple_cpu.Config
module Simulator = Ripple_cpu.Simulator
module Pipeline = Ripple_core.Pipeline
module Cue_block = Ripple_core.Cue_block
module Injector = Ripple_core.Injector
module Eviction_window = Ripple_core.Eviction_window
module Invalidation_check = Ripple_analysis.Invalidation_check
module Protocol = Ripple_serve.Protocol
module Client = Ripple_serve.Client
module Session = Ripple_serve.Session
module Snapshot = Ripple_serve.Snapshot
module Rolling = Ripple_serve.Rolling
module Fault = Ripple_fault.Fault
open Measure

let app_name = "kafka"
let chunk_bytes = 4096
let truncate_every = 6 (* every sixth capture is truncated *)
let cycle = 12 (* distinct captures, pushed in a cycle; the digest covers the first cycle *)
let host = "127.0.0.1"

(* Capture length in instructions and the rolling window in blocks: a
   window of about two captures, so the flush that takes in a truncated
   capture and the one after it run at safe-only, and the next is full
   again. *)
let capture_instrs = function Ctx.Full -> 250_000 | Ctx.Tiny -> 20_000
let window = function Ctx.Full -> 50_000 | Ctx.Tiny -> 4_000

(* The daemon's re-emission options as [ripple-sim serve] builds them
   from its defaults: the ladder on, the denylist safe-only rung, the
   CLI's default threshold. *)
let options = { Pipeline.Options.default with degrade = true; threshold = 0.55 }

type capture = { data : bytes; instrs : int }

(* A fixed pool of captures of the training input, one execution seed
   each, pushed in a cycle; every sixth is truncated.  The seed sets how
   much of each truncated capture survives (between 55 % and 75 %, so the
   flushes that take it in always land on safe-only) and seeds the fault.
   The pool itself does not move with the seed: a safe-only flush costs
   in proportion to the hints in its window, and between pools of fresh
   captures that count varies several-fold. *)
let setup_captures ?r (ctx : Ctx.t) =
  let w = call r "workloads.generate_s" (fun () -> W.Cfg_gen.generate W.Apps.kafka) in
  let program = w.W.Cfg_gen.program in
  let keep = 0.55 +. (0.2 *. Float.of_int (Ctx.pick ctx 1000) /. 1000.0) in
  let captures =
    Array.init cycle (fun k ->
        let input = { W.Executor.train with exec_seed = W.Executor.train.exec_seed + k } in
        let trace =
          call r "workloads.execute_s" (fun () ->
              W.Executor.run w ~input ~n_instrs:(capture_instrs ctx.Ctx.size))
        in
        Option.iter
          (fun r -> Recorder.add r "workloads.blocks" (Float.of_int (Array.length trace)))
          r;
        let data = call r "trace.encode_s" (fun () -> Pt.encode program trace) in
        let data =
          if k mod truncate_every = truncate_every - 1 then
            Fault.corrupt_pt ~seed:(Ctx.derive ctx k) (Fault.Truncate_pt { keep }) data
          else data
        in
        { data; instrs = Bb_trace.n_instrs program trace })
  in
  (program, captures)

let cycle_instrs captures = Array.fold_left (fun n c -> n + c.instrs) 0 captures

let chunks data =
  let n = Bytes.length data in
  List.init ((n + chunk_bytes - 1) / chunk_bytes) (fun i ->
      Bytes.sub data (i * chunk_bytes) (min chunk_bytes (n - (i * chunk_bytes))))

(* ----------------------------- the daemon ---------------------------- *)

type daemon = { pid : int; metrics_port : int; client : Client.t }

(* The daemon started and not yet reaped, for [kill_live] to stop when
   the benchmark itself is interrupted. *)
let live = ref None

let reap pid =
  live := None;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  | exception Unix.Unix_error _ -> -1

let kill_live () =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid : int))
    !live

(* Graceful stop: SIGTERM drains the daemon, which then exits 0. *)
let stop_daemon d =
  (try Client.close d.client with _ -> ());
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap d.pid

(* Start a daemon on a fresh state directory and wait until it is ready:
   both listeners bound (the ready file) and the app's session bound by
   a v2 hello, which also makes the daemon generate the app's program. *)
let start_daemon (ctx : Ctx.t) =
  let state_dir = Filename.concat ctx.Ctx.run_dir "state" in
  let ready = Filename.concat ctx.Ctx.run_dir "ready" in
  Ctx.rm_rf state_dir;
  Ctx.rm_rf ready;
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process ctx.Ctx.cli
      [|
        ctx.Ctx.cli; "serve"; "--host"; host; "--port"; "0"; "--metrics-port"; "0"; "--window";
        string_of_int (window ctx.Ctx.size); "--state-dir"; state_dir; "--ready-file"; ready;
      |]
      Unix.stdin null Unix.stderr
  in
  live := Some pid;
  Unix.close null;
  let deadline = now () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> failwith "serve daemon exited before it was ready"
    | _ -> (
      match In_channel.with_open_text ready In_channel.input_all with
      | s when String.contains s '\n' -> Scanf.sscanf s "%d %d" (fun p m -> (p, m))
      | _ | (exception Sys_error _) ->
        if now () > deadline then failwith "serve daemon not ready after 60 s";
        Unix.sleepf 0.001;
        wait ())
  in
  match wait () with
  | exception e ->
    kill_live ();
    raise e
  | port, metrics_port ->
    let client = Client.connect ~timeout:60.0 ~host ~port () in
    let d = { pid; metrics_port; client } in
    let hello = Protocol.Hello_v { app = app_name; version = Protocol.version } in
    (match Client.request client hello with
    | Protocol.Ok _ -> ()
    | Protocol.Error e ->
      ignore (stop_daemon d);
      failwith ("serve daemon refused hello: " ^ e));
    d

(* ------------------------------ the push ----------------------------- *)

let schema () =
  In_channel.with_open_text "docs/metrics.schema" In_channel.input_lines
  |> List.map String.trim
  |> List.filter (( <> ) "")
  |> List.sort compare

let type_lines body =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "#"; "TYPE"; name; kind ] -> Some (name ^ " " ^ kind)
      | _ -> None)
    (String.split_on_char '\n' body)
  |> List.sort compare

type push = {
  cycle_s : float list;  (** per cycle: its captures pushed, flushed and scraped *)
  capture_s : float list;  (** first chunk sent to flush reply, per capture *)
  chunk_s : float list;  (** chunk frame sent to its ack *)
  scrape_s : float list;
  scrape_bytes : float list;
  replies : string list;  (** flush replies of the first cycle *)
  pushed : int;  (** captures pushed *)
}

(* The closed loop: push the captures in order, each as chunk frames then
   a flush, and scrape after every flush; repeat the cycle for about
   [seconds] ([Ctx.another]) and until at least [min_captures] captures
   went through.  Every frame must be applied in sequence, and every scrape
   must carry exactly the metric families docs/metrics.schema pins. *)
let push_loop (ctx : Ctx.t) d captures ~min_captures t =
  let schema = schema () in
  let seq = ref 0 in
  let request frame what =
    Catalogue.attempt t;
    let s = !seq in
    incr seq;
    match Client.request_seq d.client frame ~seq:s with
    | Protocol.Ok json ->
      if not (Json.member "seq" json = Some (Json.Int s) && Json.member "dup" json = None) then
        Catalogue.check t (Printf.sprintf "%s %d applied" what s) false;
      json
    | Protocol.Error e ->
      Catalogue.check t (Printf.sprintf "%s %d: %s" what s e) false;
      Json.Null
  in
  let cycle_s = ref [] and capture_s = ref [] and chunk_s = ref [] in
  let scrape_s = ref [] and scrape_bytes = ref [] and replies = ref [] in
  let t0 = now () in
  let k = ref 0 and cycle_start = ref t0 in
  while !k mod cycle <> 0 || !k < min_captures || Ctx.another ctx ~t0 !cycle_s do
    if !k mod cycle = 0 then cycle_start := now ();
    let cap = captures.(!k mod cycle) in
    let c0 = now () in
    List.iter
      (fun data ->
        let (_ : Json.t), dt =
          time (fun () -> request (Protocol.Chunk_seq { seq = !seq; data }) "chunk")
        in
        chunk_s := dt :: !chunk_s)
      (chunks cap.data);
    let reply = request (Protocol.Flush_seq { seq = !seq }) "flush" in
    capture_s := (now () -. c0) :: !capture_s;
    if !k < cycle then replies := Json.to_string reply :: !replies;
    Catalogue.attempt t;
    let body, dt = time (fun () -> Client.scrape ~host ~port:d.metrics_port) in
    scrape_s := dt :: !scrape_s;
    scrape_bytes := Float.of_int (String.length body) :: !scrape_bytes;
    if type_lines body <> schema then
      Catalogue.check t (Printf.sprintf "scrape %d matches docs/metrics.schema" !k) false;
    incr k;
    if !k mod cycle = 0 then cycle_s := (now () -. !cycle_start) :: !cycle_s
  done;
  {
    cycle_s = List.rev !cycle_s;
    capture_s = List.rev !capture_s;
    chunk_s = List.rev !chunk_s;
    scrape_s = List.rev !scrape_s;
    scrape_bytes = List.rev !scrape_bytes;
    replies = List.rev !replies;
    pushed = !k;
  }

(* The daemon's final rolling profile must be the one an in-process
   session builds from the same captures.  The profile digest covers only
   the decoded window, which the ladder never touches, so the reference
   session's ladder is pinned off (no salvage reaches a min_salvage of 2)
   and its flushes skip the pipeline. *)
let reference_fnv program captures ~pushed ~window =
  let s =
    Session.create ~obs:(Ripple_obs.Run.create ())
      ~options:{ options with min_salvage = 2.0 }
      ~window ~reemit_every:0 ~name:app_name ~program ()
  in
  let seq = ref 0 in
  for k = 0 to pushed - 1 do
    List.iter
      (fun c ->
        ignore (Session.apply_chunk s ~seq:!seq c);
        incr seq)
      (chunks captures.(k mod cycle).data);
    ignore (Session.apply_flush s ~seq:!seq);
    incr seq
  done;
  let fnv = Session.profile_fnv s in
  Session.close s;
  fnv

let finish_daemon d t =
  Catalogue.attempt t;
  let status =
    match Client.request d.client Protocol.Status with
    | Protocol.Ok json -> json
    | Protocol.Error e ->
      Catalogue.check t ("status: " ^ e) false;
      Json.Null
  in
  ignore (Client.request d.client Protocol.Bye : Protocol.reply);
  let rss = peak_rss_mb (Some d.pid) in
  let code = stop_daemon d in
  Catalogue.check t "daemon drained and exited 0 on SIGTERM" (code = 0);
  (status, rss)

(* -------------------------- the traced run --------------------------- *)

(* The first cycle of captures through an in-process durable
   session, each call into the serve layer timed; then every flush's
   pipeline re-composed from outside over the same rolling profile, so
   the core, analysis, cache and cpu layers are timed at the daemon's
   call pattern. *)
let compose r (ctx : Ctx.t) program captures t =
  let dir = Filename.concat ctx.Ctx.run_dir "traced" in
  Ctx.rm_rf dir;
  let store = Snapshot.Store.open_dir (Filename.concat dir "state") in
  let probe = Snapshot.Store.open_dir (Filename.concat dir "journal-probe") in
  let window = window ctx.Ctx.size in
  let session =
    Session.create ~store ~obs:(Ripple_obs.Run.create ()) ~options ~window ~reemit_every:0
      ~name:app_name ~program ()
  in
  let seq = ref 0 in
  let flushes =
    List.init cycle (fun k ->
        let cap = captures.(k mod cycle) in
        List.iter
          (fun data ->
            Recorder.call r "serve.journal_s" (fun () ->
                Snapshot.Store.journal_append probe ~app:app_name ~seq:!seq data);
            let applied =
              Recorder.call r "serve.chunk_s" (fun () -> Session.apply_chunk session ~seq:!seq data)
            in
            (match applied with
            | `Applied _ -> ()
            | `Duplicate _ | `Gap _ -> Catalogue.check t "in-process chunk applied" false);
            incr seq)
          (chunks cap.data);
        Snapshot.Store.journal_reset probe ~app:app_name;
        let (_ : [ `Applied | `Duplicate | `Gap of int ]), dt =
          time (fun () -> Session.apply_flush session ~seq:!seq)
        in
        incr seq;
        let level = Session.level session in
        (match level with
        | Pipeline.Degrade.Full -> Recorder.sample r "serve.flush_full_s" dt
        | Pipeline.Degrade.Safe_only -> Recorder.sample r "serve.flush_safe_s" dt
        | Pipeline.Degrade.Hints_off -> Recorder.sample r "serve.flush_off_s" dt);
        Recorder.call r "serve.snapshot_s" (fun () -> Session.save session);
        let analysis = (Option.get (Session.last_outcome session)).Pipeline.analysis in
        (level, analysis, Json.to_string (Session.status session)))
  in
  let snap = Filename.concat (Filename.concat dir "state") (app_name ^ ".snap") in
  Recorder.set r "serve.snapshot_bytes" (Float.of_int (Unix.stat snap).Unix.st_size);
  Session.close session;
  Snapshot.Store.close probe;
  (* Outside re-composition: decode each capture with a fresh trace
     session, roll it into a window, and replay the flush's stages. *)
  let rolling = Rolling.create ~window () in
  let config = options.Pipeline.Options.config in
  let prefetcher = Pipeline.prefetcher_of ~config options.Pipeline.Options.prefetch in
  List.iteri
    (fun k (level, (analysis : Pipeline.analysis), _) ->
      let cap = captures.(k mod cycle) in
      let result =
        Recorder.call r "trace.decode_s" (fun () ->
            let s = Pt.Session.create program in
            List.iter
              (fun c -> if not (Pt.Session.finished s) then Pt.Session.feed s c)
              (chunks cap.data);
            Pt.Session.finish s;
            Pt.Session.result s)
      in
      Recorder.add r "trace.blocks" (Float.of_int (Array.length result.Pt.trace));
      Recorder.sample r "salvage" result.Pt.salvage;
      Rolling.add rolling ~blocks:result.Pt.trace ~expected:result.Pt.expected
        ~errors:(List.length result.Pt.errors);
      if level <> Pipeline.Degrade.Hints_off then begin
        let trace = Rolling.trace rolling in
        let stream, pos =
          Recorder.call r "cpu.record_s" (fun () ->
              Simulator.record_stream_indexed_trace ~config ~program
                ~trace:(Simulator.Trace.Blocks trace) ~prefetcher ())
        in
        Int_stream.close pos;
        Recorder.add r "cpu.accesses" (Float.of_int (Access_stream.length stream));
        let windows =
          Recorder.call r "cache.belady_s" (fun () ->
              Eviction_window.of_evictions
                (Belady.simulate config.Config.l1i
                   ~mode:(Pipeline.belady_mode_of options.Pipeline.Options.prefetch)
                   stream)
                  .Belady.evictions)
        in
        let decisions, drops =
          Recorder.call r "core.cue_select_s" (fun () ->
              Cue_block.analyze_report ~scan_limit:options.scan_limit
                ~min_support:options.min_support ~stream ~windows
                ~exec_counts:(Bb_trace.exec_counts program trace)
                ~threshold:options.threshold ())
        in
        Access_stream.close stream;
        let instrumented, _, _ =
          Recorder.call r "core.inject_s" (fun () ->
              Injector.inject ~mode:options.mode ~skip_jit:options.skip_jit
                ~max_hints_per_block:options.max_hints_per_block ~program ~decisions ())
        in
        if level = Pipeline.Degrade.Safe_only then begin
          let sites =
            Recorder.call r "analysis.classify_s" (fun () ->
                Invalidation_check.classify ~geometry:config.Config.l1i
                  ~entry:(Program.entry instrumented) (Program.blocks instrumented))
          in
          Recorder.add r "analysis.sites" (Float.of_int (List.length sites))
        end;
        Catalogue.check t
          (Printf.sprintf "flush %d re-composed as the session ran it" k)
          (Array.length windows = analysis.Pipeline.n_windows
          && List.length decisions = analysis.Pipeline.n_decisions);
        Recorder.add r "core.windows" (Float.of_int (Array.length windows));
        Recorder.add r "core.selected" (Float.of_int drops.Cue_block.selected);
        Recorder.add r "core.windows_total" (Float.of_int drops.Cue_block.windows_total);
        Recorder.add r "core.decisions" (Float.of_int (List.length decisions));
        Recorder.add r "core.hints" (Float.of_int analysis.Pipeline.injection.Injector.injected)
      end)
    flushes;
  Rolling.close rolling;
  Ctx.rm_rf dir;
  List.map (fun (_, _, status) -> status) flushes

(* ------------------------------ the runs ----------------------------- *)

let run ~trace (ctx : Ctx.t) =
  let t = Catalogue.tally () in
  let r = if trace then Some (Recorder.create ()) else None in
  (* Untraced runs set up [Ctx.setups] times, each on a fresh daemon,
     stopping all but the last; the traced run sets up once. *)
  let (program, captures, d), setup_s =
    Ctx.repeat_setup
      ~discard:(fun (_, _, d) -> ignore (stop_daemon d : int))
      (if trace then 1 else Ctx.setups)
      (fun () ->
        let program, captures = setup_captures ?r ctx in
        (program, captures, start_daemon ctx))
  in
  let push =
    (* The traced run pushes at least 100 captures, so that ten samples
       lie beyond the capture p90 it reports. *)
    let min_captures = if trace && ctx.Ctx.size = Ctx.Full then 100 else cycle in
    match push_loop ctx d captures ~min_captures t with
    | push -> push
    | exception e ->
      ignore (stop_daemon d : int);
      raise e
  in
  let status, rss = finish_daemon d t in
  Catalogue.check t "daemon profile equals an in-process session's"
    (Json.member "profile_fnv" status
    = Some
        (Json.String
           (reference_fnv program captures ~pushed:push.pushed ~window:(window ctx.Ctx.size))));
  let digest = Digest.of_strings push.replies in
  let samples =
    [
      ("cycles", List.length push.cycle_s);
      ("captures", push.pushed);
      ("chunks", List.length push.chunk_s);
      ("scrapes", List.length push.scrape_s);
    ]
  in
  let ops_ms = List.map (( *. ) 1000.0) push.cycle_s in
  match r with
  | None ->
    Catalogue.result t ~digest ~samples ~ops_ms
      ~metrics:
        [
          ("setup_s", setup_s);
          ("peak_rss_mb", rss);
          ("op_p50_ms", 1000.0 *. median push.cycle_s);
          ("minstr_per_s", Float.of_int (cycle_instrs captures) /. median push.cycle_s /. 1e6);
        ]
  | Some r ->
    let statuses, traced_s = time (fun () -> compose r ctx program captures t) in
    let strip_seq s =
      match Json.parse s with
      | Ok (Json.Obj fields) -> Json.to_string (Json.Obj (List.remove_assoc "seq" fields))
      | _ -> s
    in
    Catalogue.check t "in-process session statuses equal the daemon's flush replies"
      (List.map strip_seq push.replies = statuses);
    let flushes level = List.length (Recorder.samples r ("serve.flush_" ^ level ^ "_s")) in
    let total = Recorder.get r "core.windows_total" in
    let metrics =
      [
        ("serve.flush_full_s", median (Recorder.samples r "serve.flush_full_s"));
        ("serve.flush_safe_s", median (Recorder.samples r "serve.flush_safe_s"));
        ( "serve.safe_only_frac",
          Float.of_int (flushes "safe")
          /. Float.of_int (flushes "full" + flushes "safe" + flushes "off") );
        ("serve.scrape_ms", 1000.0 *. median push.scrape_s);
        ("serve.scrape_bytes", median push.scrape_bytes);
        ("serve.captures", Float.of_int push.pushed);
        ("serve.capture_p50_ms", 1000.0 *. median push.capture_s);
        ("serve.capture_p90_ms", 1000.0 *. quantile 0.9 push.capture_s);
        ("serve.chunk_p50_ms", 1000.0 *. median push.chunk_s);
        ("trace.salvage", mean (Recorder.samples r "salvage"));
        ( "core.selected_frac",
          if total > 0.0 then Recorder.get r "core.selected" /. total else 0.0 );
        ("core.alloc_mwords", Recorder.alloc_mwords r "core");
        ("cpu.alloc_mwords", Recorder.alloc_mwords r "cpu");
        ("analysis.alloc_mwords", Recorder.alloc_mwords r "analysis");
        ("tracing.untraced_s", List.hd push.cycle_s);
        ("tracing.traced_s", traced_s);
      ]
    in
    Catalogue.result t ~digest ~samples ~ops_ms ~metrics:(Catalogue.traced r metrics)
