(* The continuous-profiling layer: incremental PT sessions (chunking
   equivalence), the framed wire protocol, the rolling windowed profile,
   and the daemon's drift-gated re-emission loop — all in-process, no
   sockets. *)

module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program
module Pt = Ripple_trace.Pt
module W = Ripple_workloads
module Core = Ripple_core
module Obs = Ripple_obs
module Fault = Ripple_fault.Fault
module Json = Ripple_util.Json
module Protocol = Ripple_serve.Protocol
module Rolling = Ripple_serve.Rolling
module Session = Ripple_serve.Session
module Server = Ripple_serve.Server

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-9)
let checks = check Alcotest.string

let workload_fixture =
  lazy
    (let w = W.Cfg_gen.generate { W.Apps.kafka with W.App_model.seed = 5 } in
     let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:40_000 in
     (w.W.Cfg_gen.program, trace))

let clean_capture =
  lazy
    (let program, trace = Lazy.force workload_fixture in
     (program, Pt.encode program trace))

(* ------------------- chunking equivalence (tentpole) ------------------ *)

let fault_menu =
  [|
    Fault.Clean;
    Fault.Flip_tnt { flips = 32 };
    Fault.Flip_tnt { flips = 256 };
    Fault.Drop_tip { count = 8 };
    Fault.Garbage_tip { count = 8 };
    Fault.Truncate_pt { keep = 0.6 };
    Fault.Truncate_pt { keep = 0.05 };
  |]

let capture_for fidx seed =
  let program, clean = Lazy.force clean_capture in
  let data =
    match fault_menu.(fidx) with
    | Fault.Clean -> clean
    | fault -> Fault.corrupt_pt ~seed fault clean
  in
  (program, data)

(* Feed [data] split at the given byte offsets (deduplicated, sorted)
   and finish; the empty list is the one-chunk case. *)
let session_of_cuts program data cuts =
  let len = Bytes.length data in
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < len) cuts) in
  let s = Pt.Session.create program in
  let prev = ref 0 in
  List.iter
    (fun cut ->
      Pt.Session.feed s (Bytes.sub data !prev (cut - !prev));
      prev := cut)
    (cuts @ [ len ]);
  Pt.Session.finish s;
  s

let same_recovery label (a : Pt.recovery) (b : Pt.recovery) =
  check (Alcotest.array Alcotest.int) (label ^ ": trace") a.Pt.trace b.Pt.trace;
  checki (label ^ ": expected") a.Pt.expected b.Pt.expected;
  checkf (label ^ ": salvage") a.Pt.salvage b.Pt.salvage;
  checki (label ^ ": resyncs") a.Pt.resyncs b.Pt.resyncs;
  checki (label ^ ": error count") (List.length a.Pt.errors) (List.length b.Pt.errors);
  List.iter2
    (fun (x : Pt.decode_error) (y : Pt.decode_error) ->
      checki (label ^ ": error pos") x.Pt.pos y.Pt.pos;
      checki (label ^ ": error decoded") x.Pt.decoded y.Pt.decoded;
      checks (label ^ ": error kind") (Pt.error_kind_name x.Pt.kind) (Pt.error_kind_name y.Pt.kind))
    a.Pt.errors b.Pt.errors

let chunking_prop =
  QCheck.Test.make ~count:60 ~name:"any chunking decodes identically to one-shot"
    QCheck.(
      triple (int_bound (Array.length fault_menu - 1)) small_int
        (list_of_size Gen.(int_range 0 48) small_nat))
    (fun (fidx, seed, raw_cuts) ->
      let program, data = capture_for fidx seed in
      let len = max 1 (Bytes.length data) in
      (* Spread the raw offsets over the whole stream so cuts land
         mid-packet, mid-TNT-byte-run and inside the header. *)
      let cuts = List.map (fun c -> 1 + ((c * 7919) mod len)) raw_cuts in
      let s = session_of_cuts program data cuts in
      let one_shot = Pt.decode_result program data in
      same_recovery (Printf.sprintf "fault %d" fidx) one_shot (Pt.Session.result s);
      true)

let test_byte_by_byte () =
  let program, clean = Lazy.force clean_capture in
  List.iter
    (fun (label, data) ->
      let s = Pt.Session.create program in
      Bytes.iter (fun c -> Pt.Session.feed s (Bytes.make 1 c)) data;
      Pt.Session.finish s;
      same_recovery label (Pt.decode_result program data) (Pt.Session.result s))
    [
      ("clean 1-byte chunks", clean);
      ("garbage 1-byte chunks", Fault.corrupt_pt ~seed:11 (Fault.Garbage_tip { count = 16 }) clean);
      ("truncated 1-byte chunks", Fault.corrupt_pt ~seed:11 (Fault.Truncate_pt { keep = 0.4 }) clean);
    ]

let test_session_drain () =
  let program, data = Lazy.force clean_capture in
  let s = Pt.Session.create program in
  let drained = ref 0 in
  let half = Bytes.length data / 2 in
  Pt.Session.feed s (Bytes.sub data 0 half);
  drained := !drained + Array.length (Pt.Session.drain s);
  checki "mid-stream drain matches decoded" !drained (Pt.Session.decoded s);
  Pt.Session.feed s (Bytes.sub data half (Bytes.length data - half));
  Pt.Session.finish s;
  drained := !drained + Array.length (Pt.Session.drain s);
  checki "drains cover the whole capture" (Array.length (Pt.Session.result s).Pt.trace) !drained;
  checki "drain after exhaustion is empty" 0 (Array.length (Pt.Session.drain s))

(* --------------------------- wire protocol --------------------------- *)

let test_protocol_roundtrip () =
  let frames =
    [
      Protocol.Hello_v { app = "cassandra"; version = Protocol.version };
      Protocol.Chunk_seq { seq = 0; data = Bytes.of_string "\x00\x01\x02\xff" };
      Protocol.Flush_seq { seq = 1 };
      Protocol.Status;
      Protocol.Chunk_seq { seq = 2; data = Bytes.empty };
      Protocol.Bye;
    ]
  in
  let buf = Buffer.create 128 in
  List.iter (Protocol.write_frame buf) frames;
  let wire = Buffer.to_bytes buf in
  (* Deliver in 3-byte pieces: every frame header straddles a chunk. *)
  let reader = Protocol.Reader.create () in
  let got = ref [] in
  let pos = ref 0 in
  while !pos < Bytes.length wire do
    let n = min 3 (Bytes.length wire - !pos) in
    Protocol.Reader.add reader (Bytes.sub wire !pos n) n;
    pos := !pos + n;
    let rec drain () =
      match Protocol.Reader.pop_frame reader with
      | `Frame f ->
        got := f :: !got;
        drain ()
      | `Awaiting -> ()
      | `Corrupt msg -> Alcotest.failf "unexpected corrupt: %s" msg
    in
    drain ()
  done;
  checki "all frames recovered" (List.length frames) (List.length !got);
  List.iter2
    (fun sent got ->
      checks "frame kind" (Protocol.frame_name sent) (Protocol.frame_name got);
      match (sent, got) with
      | Protocol.Chunk_seq a, Protocol.Chunk_seq b ->
        checki "chunk seq" a.seq b.seq;
        checkb "chunk payload" true (Bytes.equal a.data b.data)
      | Protocol.Hello_v a, Protocol.Hello_v b ->
        checks "hello app" a.app b.app;
        checki "hello version" a.version b.version
      | Protocol.Flush_seq a, Protocol.Flush_seq b -> checki "flush seq" a.seq b.seq
      | _ -> ())
    frames (List.rev !got)

let test_protocol_corrupt () =
  (* Unknown tags are corrupt whatever the payload, the unsequenced
     version-1 tags 'H', 'C' and 'F' included. *)
  List.iter
    (fun junk ->
      let reader = Protocol.Reader.create () in
      let junk = Bytes.of_string junk in
      Protocol.Reader.add reader junk (Bytes.length junk);
      match Protocol.Reader.pop_frame reader with
      | `Corrupt _ -> ()
      | `Awaiting | `Frame _ -> Alcotest.failf "tag %C must be corrupt" (Bytes.get junk 0))
    [
      "Z\x00\x00\x00\x00";
      "H\x00\x00\x00\x05kafka";
      "C\x00\x00\x00\x04\x00\x01\x02\xff";
      "F\x00\x00\x00\x00";
    ];
  let reader = Protocol.Reader.create () in
  (* Length prefix far beyond the cap: rejected before buffering. *)
  let oversized = Bytes.of_string "c\x7f\xff\xff\xff" in
  Protocol.Reader.add reader oversized (Bytes.length oversized);
  (match Protocol.Reader.pop_frame reader with
  | `Corrupt _ -> ()
  | `Awaiting | `Frame _ -> Alcotest.fail "oversized frame must be corrupt")

let test_protocol_reply () =
  let buf = Buffer.create 64 in
  Protocol.write_reply buf (Protocol.Ok (Json.Obj [ ("decoded", Json.Int 7) ]));
  Protocol.write_reply buf (Protocol.Error "nope");
  let wire = Buffer.to_bytes buf in
  let reader = Protocol.Reader.create () in
  Protocol.Reader.add reader wire (Bytes.length wire);
  (match Protocol.Reader.pop_reply reader with
  | `Reply (Protocol.Ok json) -> checkb "ok payload" true (Json.member "decoded" json = Some (Json.Int 7))
  | _ -> Alcotest.fail "expected ok reply");
  match Protocol.Reader.pop_reply reader with
  | `Reply (Protocol.Error msg) -> checks "error payload" "nope" msg
  | _ -> Alcotest.fail "expected error reply"

(* --------------------------- rolling window -------------------------- *)

let test_rolling_empty () =
  let r = Rolling.create ~window:100 () in
  checkf "empty window salvage is 0.0, not NaN" 0.0 (Rolling.salvage r);
  checki "no blocks" 0 (Rolling.blocks r);
  checki "no errors" 0 (Rolling.errors r);
  checki "empty trace" 0 (Array.length (Rolling.trace r));
  Alcotest.check_raises "non-positive window rejected"
    (Invalid_argument "Rolling.create: window must be positive") (fun () ->
      ignore (Rolling.create ~window:0 () : Rolling.t))

let test_rolling_clean_empty_generation () =
  let r = Rolling.create ~window:100 () in
  Rolling.add r ~blocks:[||] ~expected:0 ~errors:0;
  checkf "empty-but-clean capture is salvage 1.0" 1.0 (Rolling.salvage r);
  Rolling.add r ~blocks:[||] ~expected:0 ~errors:1;
  checkf "empty capture with errors is salvage 0.0" 0.0 (Rolling.salvage r)

let test_rolling_eviction () =
  let r = Rolling.create ~window:10 () in
  let gen tag n = Array.init n (fun i -> (tag * 100) + i) in
  Rolling.add r ~blocks:(gen 1 6) ~expected:6 ~errors:0;
  Rolling.add r ~blocks:(gen 2 6) ~expected:8 ~errors:1;
  (* 12 > 10: the oldest generation goes, whole. *)
  checki "oldest generation evicted" 6 (Rolling.blocks r);
  checki "one generation left" 1 (Rolling.generations r);
  checki "advertised follows eviction" 8 (Rolling.advertised r);
  checki "errors follow eviction" 1 (Rolling.errors r);
  checkf "salvage over retained generations" 0.75 (Rolling.salvage r);
  check (Alcotest.array Alcotest.int) "trace is the retained generation" (gen 2 6) (Rolling.trace r)

let test_rolling_oversized_generation_kept () =
  let r = Rolling.create ~window:4 () in
  Rolling.add r ~blocks:(Array.init 9 Fun.id) ~expected:9 ~errors:0;
  checki "sole oversized generation survives" 9 (Rolling.blocks r);
  Rolling.add r ~blocks:[| 1; 2 |] ~expected:2 ~errors:0;
  checki "next add evicts down to the newcomer" 2 (Rolling.blocks r);
  checki "one generation" 1 (Rolling.generations r)

let test_rolling_order () =
  let r = Rolling.create ~window:100 () in
  Rolling.add r ~blocks:[| 1; 2 |] ~expected:2 ~errors:0;
  Rolling.add r ~blocks:[| 3 |] ~expected:1 ~errors:0;
  Rolling.add r ~blocks:[| 4; 5 |] ~expected:2 ~errors:0;
  check (Alcotest.array Alcotest.int) "oldest-first concatenation" [| 1; 2; 3; 4; 5 |]
    (Rolling.trace r)

(* ------------------------ daemon sessions ---------------------------- *)

let serve_options =
  {
    Core.Pipeline.Options.default with
    Core.Pipeline.Options.degrade = true;
    prefetch = Core.Pipeline.No_prefetch;
  }

(* The kafka fixture captures to ~1.1 KB, so split small: the
   mid-capture window must hold several chunks for half-pushed state to
   mean anything. *)
let chunks_of ?(chunk = 97) data =
  let len = Bytes.length data in
  let n = (len + chunk - 1) / chunk in
  List.init n (fun i -> Bytes.sub data (i * chunk) (min chunk (len - (i * chunk))))

(* Frames at the session's own horizon, so each one applies. *)
let feed_next session chunk =
  match Session.apply_chunk session ~seq:(Session.next_seq session) chunk with
  | `Applied _ -> ()
  | `Duplicate _ | `Gap _ -> Alcotest.fail "chunk at the horizon must apply"

let flush_next session =
  match Session.apply_flush session ~seq:(Session.next_seq session) with
  | `Applied -> ()
  | `Duplicate | `Gap _ -> Alcotest.fail "flush at the horizon must apply"

let push_capture ?(chunk = 1500) session data =
  List.iter (feed_next session) (chunks_of ~chunk data);
  flush_next session

(* The drift-gated ladder over a live session: trust is earned by a
   clean flush, stepped down as corrupted captures take over the
   window, and re-earned when clean captures evict them. *)
let test_session_ladder () =
  let program, clean = Lazy.force clean_capture in
  let blocks = Array.length (snd (Lazy.force workload_fixture)) in
  let obs = Obs.Run.create () in
  (* Window sized so each flush's generation evicts the previous one:
     the ladder then tracks the quality of the latest capture. *)
  let s =
    Session.create ~obs ~options:serve_options ~window:blocks ~reemit_every:0 ~name:"kafka"
      ~program ()
  in
  checkb "starts with hints off" true (Session.level s = Core.Pipeline.Degrade.Hints_off);
  push_capture s clean;
  checkb "clean flush earns full hints" true (Session.level s = Core.Pipeline.Degrade.Full);
  checki "hints-off -> full counts one transition" 1 (Session.transitions s);
  push_capture s (Fault.corrupt_pt ~seed:3 (Fault.Truncate_pt { keep = 0.7 }) clean);
  checkb "moderate salvage steps down to safe-only" true
    (Session.level s = Core.Pipeline.Degrade.Safe_only);
  push_capture s (Fault.corrupt_pt ~seed:3 (Fault.Truncate_pt { keep = 0.05 }) clean);
  checkb "heavy loss turns hints off" true (Session.level s = Core.Pipeline.Degrade.Hints_off);
  push_capture s clean;
  checkb "clean capture re-earns full hints" true (Session.level s = Core.Pipeline.Degrade.Full);
  checki "four ladder transitions" 4 (Session.transitions s);
  checki "one emission per flush" 4 (Session.emissions s)

(* Acceptance: a chunked session and a one-shot Pipeline.run over the
   same capture produce byte-identical hint output. *)
let test_session_matches_one_shot () =
  let program, data = Lazy.force clean_capture in
  let obs = Obs.Run.create () in
  let s =
    Session.create ~obs ~options:serve_options ~window:max_int ~reemit_every:0 ~name:"kafka"
      ~program ()
  in
  push_capture ~chunk:777 s data;
  let one_shot = Core.Pipeline.run serve_options ~source:program (Core.Pipeline.Pt_bytes data) in
  let session_program = Session.program s in
  checki "same hint count" (Program.static_hints one_shot.Core.Pipeline.program)
    (Program.static_hints session_program);
  Array.iteri
    (fun i (b : Basic_block.t) ->
      let b' = Program.block session_program i in
      checkb "identical hints per block" true (b.Basic_block.hints = b'.Basic_block.hints))
    (Program.blocks one_shot.Core.Pipeline.program);
  let d level = level.Core.Pipeline.degrade.Core.Pipeline.Degrade.level in
  checkb "same ladder level" true
    (d one_shot.Core.Pipeline.analysis = d (Option.get (Session.last_outcome s)).Core.Pipeline.analysis)

let test_session_reemit_mid_capture () =
  let program, data = Lazy.force clean_capture in
  let obs = Obs.Run.create () in
  let s =
    Session.create ~obs ~options:serve_options ~window:max_int ~reemit_every:500 ~name:"kafka"
      ~program ()
  in
  List.iter (feed_next s) (chunks_of ~chunk:512 data);
  checkb "re-emitted before any flush" true (Session.emissions s > 1);
  checkb "mid-capture clean stream already earns trust" true
    (Session.level s = Core.Pipeline.Degrade.Full);
  flush_next s;
  checkb "flush still lands at full" true (Session.level s = Core.Pipeline.Degrade.Full)

(* ------------------------ daemon, in-process ------------------------- *)

let mini_program () = fst (Lazy.force workload_fixture)

let mini_server () =
  Server.create
    {
      Server.default_config with
      Server.options = serve_options;
      lookup =
        (fun name ->
          if name = "kafka" || name = "zippy" then Some (mini_program ()) else None);
    }

let expect_ok label = function
  | Protocol.Ok json, disposition -> (json, disposition)
  | Protocol.Error msg, _ -> Alcotest.failf "%s: unexpected error %s" label msg

let expect_error label = function
  | Protocol.Error _, `Keep -> ()
  | Protocol.Error _, `Close -> Alcotest.failf "%s: error should keep the connection" label
  | Protocol.Ok _, _ -> Alcotest.failf "%s: expected an error reply" label

let hello app = Protocol.Hello_v { app; version = Protocol.version }

let test_server_frames () =
  let t = mini_server () in
  let conn = Server.Conn.create () in
  expect_error "chunk before hello"
    (Server.Conn.handle t conn (Protocol.Chunk_seq { seq = 0; data = Bytes.create 4 }));
  expect_error "flush before hello" (Server.Conn.handle t conn (Protocol.Flush_seq { seq = 0 }));
  expect_error "unknown app" (Server.Conn.handle t conn (hello "nope"));
  let json, _ = expect_ok "hello" (Server.Conn.handle t conn (hello "kafka")) in
  checkb "hello returns status for the app" true
    (Json.member "app" json = Some (Json.String "kafka"));
  let _, data = Lazy.force clean_capture in
  let json, _ =
    expect_ok "chunk" (Server.Conn.handle t conn (Protocol.Chunk_seq { seq = 0; data }))
  in
  (match Json.member "decoded" json with
  | Some (Json.Int n) -> checkb "chunk reports decoded blocks" true (n > 0)
  | _ -> Alcotest.fail "chunk reply lacks decoded count");
  let json, _ = expect_ok "flush" (Server.Conn.handle t conn (Protocol.Flush_seq { seq = 1 })) in
  checkb "flush reports a generation" true (Json.member "generations" json = Some (Json.Int 1));
  let _, disposition = expect_ok "bye" (Server.Conn.handle t conn Protocol.Bye) in
  checkb "bye closes" true (disposition = `Close)

let test_server_two_sessions () =
  let t = mini_server () in
  let a = Server.Conn.create () and b = Server.Conn.create () in
  let _, data = Lazy.force clean_capture in
  ignore (expect_ok "hello a" (Server.Conn.handle t a (hello "kafka")));
  ignore (expect_ok "hello b" (Server.Conn.handle t b (hello "zippy")));
  checki "two sessions registered" 2 (List.length (Server.sessions t));
  (* Interleave the two apps on the same daemon. *)
  let half = Bytes.length data / 2 in
  let chunk conn seq data = Server.Conn.handle t conn (Protocol.Chunk_seq { seq; data }) in
  ignore (expect_ok "a chunk" (chunk a 0 (Bytes.sub data 0 half)));
  ignore (expect_ok "b chunk" (chunk b 0 data));
  ignore (expect_ok "a chunk 2" (chunk a 1 (Bytes.sub data half (Bytes.length data - half))));
  ignore (expect_ok "a flush" (Server.Conn.handle t a (Protocol.Flush_seq { seq = 2 })));
  ignore (expect_ok "b flush" (Server.Conn.handle t b (Protocol.Flush_seq { seq = 1 })));
  List.iter
    (fun name ->
      match Server.find_session t name with
      | None -> Alcotest.failf "session %s missing" name
      | Some s ->
        checkb (name ^ " earned full hints") true (Session.level s = Core.Pipeline.Degrade.Full))
    [ "kafka"; "zippy" ];
  (* A second Hello for a known app rebinds to the same session. *)
  let c = Server.Conn.create () in
  ignore (expect_ok "hello c" (Server.Conn.handle t c (hello "kafka")));
  checki "no duplicate session" 2 (List.length (Server.sessions t))

(* The live scrape carries the complete pinned vocabulary: pipeline
   families are pre-registered, serve families come from the daemon
   itself. *)
let test_server_scrape_schema () =
  let t = mini_server () in
  let conn = Server.Conn.create () in
  let _, data = Lazy.force clean_capture in
  ignore (expect_ok "hello" (Server.Conn.handle t conn (hello "kafka")));
  ignore (expect_ok "chunk" (Server.Conn.handle t conn (Protocol.Chunk_seq { seq = 0; data })));
  ignore (expect_ok "flush" (Server.Conn.handle t conn (Protocol.Flush_seq { seq = 1 })));
  let type_lines =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] -> Some (name ^ " " ^ kind)
        | _ -> None)
      (String.split_on_char '\n' (Server.metrics_body t))
  in
  let ic = open_in "../docs/metrics.schema" in
  let rec read acc =
    match input_line ic with
    | line -> read (if String.trim line = "" then acc else String.trim line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  check (Alcotest.list Alcotest.string) "scrape carries the full pinned schema" (read [])
    type_lines

(* --------------------- durability: snapshot codec -------------------- *)

module Snapshot = Ripple_serve.Snapshot
module Net_fault = Ripple_fault.Net_fault
module Client = Ripple_serve.Client

let state_gen =
  QCheck.Gen.(
    let gen_gen =
      map3
        (fun blocks expected errors ->
          { Snapshot.g_blocks = Array.of_list blocks; g_expected = expected; g_errors = errors })
        (list_size (int_bound 40) (int_bound 0xFFFF))
        (int_bound 10_000) (int_bound 50)
    in
    (* Counters are u64 on disk: exercise values past the u32 boundary
       so a regression to 32-bit truncation fails the round-trip. *)
    let counter = oneof [ int_bound 10_000; map (fun k -> 0xFFFF_FFFF + k) (int_bound 10_000) ] in
    map
      (fun (app, (level, transitions, emissions, next_seq), gens) ->
        { Snapshot.app; level; transitions; emissions; next_seq; gens })
      (triple (string_size ~gen:printable (int_range 0 12))
         (quad (int_bound 2) counter counter counter)
         (list_size (int_bound 5) gen_gen)))

let state_arb = QCheck.make ~print:(fun s -> s.Snapshot.app) state_gen

let snapshot_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"snapshot encode/decode round-trips" state_arb (fun st ->
      match Snapshot.decode (Snapshot.encode st) with
      | Result.Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Result.Ok got ->
        got.Snapshot.app = st.Snapshot.app
        && got.Snapshot.level = st.Snapshot.level
        && got.Snapshot.transitions = st.Snapshot.transitions
        && got.Snapshot.emissions = st.Snapshot.emissions
        && got.Snapshot.next_seq = st.Snapshot.next_seq
        && List.length got.Snapshot.gens = List.length st.Snapshot.gens
        && List.for_all2
             (fun (a : Snapshot.gen) (b : Snapshot.gen) ->
               a.Snapshot.g_blocks = b.Snapshot.g_blocks
               && a.Snapshot.g_expected = b.Snapshot.g_expected
               && a.Snapshot.g_errors = b.Snapshot.g_errors)
             got.Snapshot.gens st.Snapshot.gens)

(* Any truncation or byte flip must surface as [Error], never as an
   exception or a silently-wrong state: a half-written or bit-rotted
   snapshot loads as "no durable state". *)
let snapshot_corruption_prop =
  QCheck.Test.make ~count:200 ~name:"snapshot tolerates truncation and corruption"
    QCheck.(triple state_arb small_nat small_nat)
    (fun (st, cut_raw, flip_raw) ->
      let b = Snapshot.encode st in
      let len = Bytes.length b in
      let truncated = Bytes.sub b 0 (cut_raw mod len) in
      (match Snapshot.decode truncated with
      | Result.Error _ -> ()
      | Result.Ok _ -> QCheck.Test.fail_report "truncated snapshot decoded");
      let flipped = Bytes.copy b in
      let i = flip_raw mod len in
      Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x40));
      (match Snapshot.decode flipped with
      | Result.Error _ -> ()
      | Result.Ok _ -> QCheck.Test.fail_report "corrupted snapshot decoded");
      true)

let journal_tail_prop =
  QCheck.Test.make ~count:200 ~name:"journal keeps the longest valid prefix"
    QCheck.(pair (list_of_size Gen.(int_range 0 8) (pair small_nat small_string)) small_nat)
    (fun (records, cut_raw) ->
      let buf = Buffer.create 256 in
      List.iteri
        (fun i (_, data) ->
          Buffer.add_bytes buf (Snapshot.journal_record ~seq:i (Bytes.of_string data)))
        records;
      let wire = Buffer.to_bytes buf in
      let full = Snapshot.journal_decode wire in
      if List.length full <> List.length records then
        QCheck.Test.fail_reportf "full journal lost records: %d of %d" (List.length full)
          (List.length records);
      (* A crash-truncated tail drops whole records from the end, never
         from the middle, and never raises. *)
      let cut = if Bytes.length wire = 0 then 0 else cut_raw mod Bytes.length wire in
      let partial = Snapshot.journal_decode (Bytes.sub wire 0 cut) in
      List.length partial <= List.length full
      && List.for_all2
           (fun (sa, da) (sb, db) -> sa = sb && Bytes.equal da db)
           partial
           (List.filteri (fun i _ -> i < List.length partial) full))

(* Pin the u32→u64 widening deterministically: a session horizon past
   2^32 must survive both the snapshot and the journal verbatim, never
   wrap into a live-looking but wrong dedup horizon. *)
let test_wide_counters () =
  let st =
    {
      Snapshot.app = "wide";
      level = 1;
      transitions = 0x1_0000_0001;
      emissions = 0x2_0000_0002;
      next_seq = 0x3_0000_0003;
      gens = [];
    }
  in
  (match Snapshot.decode (Snapshot.encode st) with
  | Result.Error e -> Alcotest.failf "wide snapshot decode failed: %s" e
  | Result.Ok got ->
    Alcotest.(check int) "transitions" st.Snapshot.transitions got.Snapshot.transitions;
    Alcotest.(check int) "emissions" st.Snapshot.emissions got.Snapshot.emissions;
    Alcotest.(check int) "next_seq" st.Snapshot.next_seq got.Snapshot.next_seq);
  let seq = 0x1_0000_0005 in
  match Snapshot.journal_decode (Snapshot.journal_record ~seq (Bytes.of_string "abc")) with
  | [ (got, data) ] ->
    Alcotest.(check int) "journal seq" seq got;
    Alcotest.(check string) "journal data" "abc" (Bytes.to_string data)
  | records -> Alcotest.failf "wide journal decode: %d records" (List.length records)

(* The wire keeps seqs at u32: sending one past that must be an
   explicit error, not a silent alias of seq mod 2^32. *)
let test_seq_overflow_rejected () =
  let buf = Buffer.create 64 in
  (match
     Protocol.write_frame buf (Protocol.Flush_seq { seq = 0x1_0000_0000 })
   with
  | () -> Alcotest.fail "overflowing flush seq must be rejected"
  | exception Invalid_argument _ -> ());
  match
    Protocol.write_frame buf (Protocol.Chunk_seq { seq = 0x1_0000_0000; data = Bytes.create 1 })
  with
  | () -> Alcotest.fail "overflowing chunk seq must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------- v2 frames and wire-level faults ------------------ *)

let frames_equal a b =
  match (a, b) with
  | ( Protocol.Hello_v { app = a1; version = v1 },
      Protocol.Hello_v { app = a2; version = v2 } ) ->
    a1 = a2 && v1 = v2
  | ( Protocol.Chunk_seq { seq = s1; data = d1 },
      Protocol.Chunk_seq { seq = s2; data = d2 } ) ->
    s1 = s2 && Bytes.equal d1 d2
  | Protocol.Status, Protocol.Status | Protocol.Bye, Protocol.Bye -> true
  | Protocol.Flush_seq { seq = s1 }, Protocol.Flush_seq { seq = s2 } -> s1 = s2
  | _ -> false

let test_protocol_v2_roundtrip () =
  let frames =
    [
      Protocol.Hello_v { app = "kafka"; version = 2 };
      Protocol.Chunk_seq { seq = 0; data = Bytes.of_string "\x00\x01\x02\xff" };
      Protocol.Chunk_seq { seq = 0xFFFF; data = Bytes.empty };
      Protocol.Flush_seq { seq = 3 };
      Protocol.Status;
      Protocol.Hello_v { app = ""; version = 250 };
      Protocol.Bye;
    ]
  in
  let buf = Buffer.create 128 in
  List.iter (Protocol.write_frame buf) frames;
  let wire = Buffer.to_bytes buf in
  let reader = Protocol.Reader.create () in
  let got = ref [] in
  (* Byte-by-byte: every header and payload straddles a delivery. *)
  Bytes.iter
    (fun c ->
      Protocol.Reader.add reader (Bytes.make 1 c) 1;
      match Protocol.Reader.pop_frame reader with
      | `Frame f -> got := f :: !got
      | `Awaiting -> ()
      | `Corrupt msg -> Alcotest.failf "unexpected corrupt: %s" msg)
    wire;
  checki "all frames recovered" (List.length frames) (List.length !got);
  List.iter2
    (fun sent got -> checkb "frame round-trips" true (frames_equal sent got))
    frames (List.rev !got)

(* Torn and duplicated frames through the net-fault planner: tearing
   never changes what the reader yields, duplication yields the victim
   exactly twice — the transport property the resumable push's dedup
   depends on. *)
let torn_duplicate_prop =
  QCheck.Test.make ~count:120 ~name:"torn/duplicated frames parse as planned"
    QCheck.(triple (int_bound 1000) (int_bound 5) bool)
    (fun (seed, victim, duplicate) ->
      let frames =
        [
          Protocol.Hello_v { app = "kafka"; version = 2 };
          Protocol.Chunk_seq { seq = 0; data = Bytes.of_string "abcdef" };
          Protocol.Chunk_seq { seq = 1; data = Bytes.make 300 'x' };
          Protocol.Chunk_seq { seq = 2; data = Bytes.empty };
          Protocol.Flush_seq { seq = 3 };
          Protocol.Status;
        ]
      in
      let fault = if duplicate then Net_fault.Duplicate_frame else Net_fault.Torn_frame in
      let reader = Protocol.Reader.create () in
      let got = ref [] in
      let feed run =
        Protocol.Reader.add reader run (Bytes.length run);
        let rec drain () =
          match Protocol.Reader.pop_frame reader with
          | `Frame f ->
            got := f :: !got;
            drain ()
          | `Awaiting -> ()
          | `Corrupt msg -> Alcotest.failf "corrupt under %s: %s" (Net_fault.name fault) msg
        in
        drain ()
      in
      List.iteri
        (fun index frame ->
          let buf = Buffer.create 64 in
          Protocol.write_frame buf frame;
          let raw = Buffer.to_bytes buf in
          match Net_fault.plan ~seed fault ~victim ~index raw with
          | Net_fault.Deliver runs -> List.iter feed runs
          | Net_fault.Deliver_then_cut runs -> List.iter feed runs
          | Net_fault.Delay (_, run) -> feed run)
        frames;
      let expected =
        List.concat
          (List.mapi
             (fun i f -> if duplicate && i = victim && victim < List.length frames then [ f; f ] else [ f ])
             frames)
      in
      List.length !got = List.length expected
      && List.for_all2 frames_equal expected (List.rev !got))

(* ------------------ durable sessions and v2 serving ------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ripple-test-serve-%d-%d" (Unix.getpid ()) !n)
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

(* Status comparison strips nothing: every field — profile digest,
   ladder level, counters, sequence horizon — must match. *)
let check_status_equal label control live =
  if not (Json.equal control live) then
    Alcotest.failf "%s: control=%s live=%s" label (Json.to_string control) (Json.to_string live)

let test_session_persistence () =
  let program, data = Lazy.force clean_capture in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let mk ?store obs =
        Session.create ?store ~obs ~options:serve_options ~window:max_int ~reemit_every:0
          ~name:"kafka" ~program ()
      in
      (* Control: every chunk and the flush, uninterrupted, no store. *)
      let control =
        let s = mk (Obs.Run.create ()) in
        List.iteri
          (fun i c ->
            match Session.apply_chunk s ~seq:i c with
            | `Applied _ -> ()
            | `Duplicate _ | `Gap _ -> Alcotest.fail "control apply rejected")
          (chunks_of data);
        (match Session.apply_flush s ~seq:(List.length (chunks_of data)) with
        | `Applied -> ()
        | `Duplicate | `Gap _ -> Alcotest.fail "control flush rejected");
        Session.status s
      in
      (* Live: half the chunks into a durable session, then "crash"
         (drop the session on the floor), restore, finish, flush. *)
      let store = Snapshot.Store.open_dir dir in
      let s1 = mk ~store (Obs.Run.create ()) in
      let chunks = chunks_of data in
      let k = List.length chunks / 2 in
      List.iteri
        (fun i c -> if i < k then ignore (Session.apply_chunk s1 ~seq:i c))
        chunks;
      (* Dedup and gap answers while we are here. *)
      (match Session.apply_chunk s1 ~seq:0 (List.hd chunks) with
      | `Duplicate _ -> ()
      | `Applied _ | `Gap _ -> Alcotest.fail "replayed seq 0 must be a duplicate");
      (match Session.apply_chunk s1 ~seq:9999 (List.hd chunks) with
      | `Gap expected -> checki "gap names the horizon" k expected
      | `Applied _ | `Duplicate _ -> Alcotest.fail "far-future seq must be a gap");
      Snapshot.Store.close store;
      (* Recovery: fresh store handle, load, restore, resume. *)
      let store = Snapshot.Store.open_dir dir in
      (match Snapshot.Store.load store "kafka" with
      | None -> Alcotest.fail "no durable state found"
      | Some (state, journal) ->
        checki "journal holds the in-flight chunks" k (List.length journal);
        let s2 =
          Session.restore ~store ~obs:(Obs.Run.create ()) ~options:serve_options ~window:max_int
            ~reemit_every:0 ~program state journal
        in
        checki "recovered sequence horizon" k (Session.next_seq s2);
        List.iteri (fun i c -> if i >= k then ignore (Session.apply_chunk s2 ~seq:i c)) chunks;
        (match Session.apply_flush s2 ~seq:(List.length chunks) with
        | `Applied -> ()
        | `Duplicate | `Gap _ -> Alcotest.fail "resumed flush rejected");
        check_status_equal "recovered session" control (Session.status s2);
        Session.close s2))

let test_server_v2_frames () =
  let t = mini_server () in
  let conn = Server.Conn.create () in
  let _, data = Lazy.force clean_capture in
  (match Server.Conn.handle t conn (Protocol.Hello_v { app = "kafka"; version = 1 }) with
  | Protocol.Error msg, `Keep -> checks "old version refused" "unsupported protocol version 1" msg
  | _ -> Alcotest.fail "a version-1 hello must be refused");
  checki "refused hello registers no session" 0 (List.length (Server.sessions t));
  let json, _ =
    expect_ok "hello_v" (Server.Conn.handle t conn (Protocol.Hello_v { app = "kafka"; version = 9 }))
  in
  checkb "server grants its own version, not the requested one" true
    (Json.member "version" json = Some (Json.Int Protocol.version));
  checkb "hello reply carries the sequence horizon" true
    (Json.member "next_seq" json = Some (Json.Int 0));
  let json, _ =
    expect_ok "chunk 0" (Server.Conn.handle t conn (Protocol.Chunk_seq { seq = 0; data }))
  in
  checkb "applied chunk echoes its seq" true (Json.member "seq" json = Some (Json.Int 0));
  checkb "applied chunk is not a dup" true (Json.member "dup" json = None);
  let json, _ =
    expect_ok "chunk 0 again" (Server.Conn.handle t conn (Protocol.Chunk_seq { seq = 0; data }))
  in
  checkb "replayed chunk is acknowledged as dup" true
    (Json.member "dup" json = Some (Json.Bool true));
  (match Server.Conn.handle t conn (Protocol.Chunk_seq { seq = 5; data }) with
  | Protocol.Error msg, `Keep ->
    checkb "gap error names the expected seq" true
      (msg = Printf.sprintf "gap: expected seq %d" 1)
  | _ -> Alcotest.fail "out-of-order chunk must be a gap error");
  let json, _ =
    expect_ok "flush_seq" (Server.Conn.handle t conn (Protocol.Flush_seq { seq = 1 }))
  in
  checkb "flush echoes its seq" true (Json.member "seq" json = Some (Json.Int 1));
  let json, _ =
    expect_ok "flush_seq dup" (Server.Conn.handle t conn (Protocol.Flush_seq { seq = 1 }))
  in
  checkb "replayed flush is a dup, not a second emission" true
    (Json.member "dup" json = Some (Json.Bool true));
  checkb "flush dup did not re-emit" true
    (Json.member "emissions" (Session.status (List.hd (Server.sessions t)))
    = Some (Json.Int 1))

let test_server_overload () =
  let t =
    Server.create
      {
        Server.default_config with
        Server.options = serve_options;
        max_sessions = 1;
        lookup = (fun _ -> Some (mini_program ()));
      }
  in
  let a = Server.Conn.create () and b = Server.Conn.create () in
  ignore (expect_ok "first app" (Server.Conn.handle t a (hello "kafka")));
  (match Server.Conn.handle t b (hello "zippy") with
  | Protocol.Error "overloaded", `Keep -> ()
  | Protocol.Error msg, _ -> Alcotest.failf "expected overloaded, got %s" msg
  | Protocol.Ok _, _ -> Alcotest.fail "session past max-sessions must be refused");
  (* A re-hello to the existing session still works at the cap. *)
  ignore (expect_ok "rebind" (Server.Conn.handle t b (hello "kafka")));
  checki "one session registered" 1 (List.length (Server.sessions t))

(* A loopback port nobody listens on: bound, then released. *)
let released_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> assert false
  in
  Unix.close fd;
  port

(* Bad counts are refused up front, before any connection is tried. *)
let test_push_rejects_bad_arguments () =
  let port = released_port () in
  let _, data = Lazy.force clean_capture in
  List.iter
    (fun (attempts, chunk, msg) ->
      Alcotest.check_raises
        (Printf.sprintf "attempts %d, chunk %d" attempts chunk)
        (Invalid_argument ("Client.push_with_retries: " ^ msg))
        (fun () ->
          ignore
            (Client.push_with_retries ~attempts ~chunk ~host:"127.0.0.1" ~port ~app:"kafka" data
              : (Client.push_result, string) result)))
    [
      (0, 4096, "attempts must be positive");
      (1, 0, "chunk must be positive");
      (1, -5, "chunk must be positive");
    ]

(* A window below one block fails when the daemon is built, not when the
   first session's rolling window is, inside the event loop. *)
let test_server_rejects_zero_window () =
  Alcotest.check_raises "window 0" (Invalid_argument "Server.create: window must be positive")
    (fun () -> ignore (Server.create { Server.default_config with Server.window = 0 } : Server.t))

let test_scrape_closes_socket () =
  let port = released_port () in
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  for _ = 1 to 10 do
    try ignore (Client.scrape ~host:"127.0.0.1" ~port : string) with Unix.Unix_error _ -> ()
  done;
  checki "failed scrapes leave no socket open" before (open_fds ())

(* The end-to-end kill -9 / restart / resume acceptance test lives in
   its own executable (test_recover.ml): it forks real daemon
   processes, and OCaml forbids [Unix.fork] in a process that has ever
   spawned domains — which this binary has, via the experiment-pool
   suites. *)

let suites =
  [
    ( "serve",
      [
        QCheck_alcotest.to_alcotest chunking_prop;
        Alcotest.test_case "byte-by-byte chunking" `Quick test_byte_by_byte;
        Alcotest.test_case "session drain" `Quick test_session_drain;
        Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
        Alcotest.test_case "protocol corrupt frames" `Quick test_protocol_corrupt;
        Alcotest.test_case "protocol replies" `Quick test_protocol_reply;
        Alcotest.test_case "rolling empty" `Quick test_rolling_empty;
        Alcotest.test_case "rolling clean empty generation" `Quick
          test_rolling_clean_empty_generation;
        Alcotest.test_case "rolling eviction" `Quick test_rolling_eviction;
        Alcotest.test_case "rolling oversized generation" `Quick
          test_rolling_oversized_generation_kept;
        Alcotest.test_case "rolling order" `Quick test_rolling_order;
        Alcotest.test_case "session ladder transitions" `Slow test_session_ladder;
        Alcotest.test_case "session matches one-shot run" `Slow test_session_matches_one_shot;
        Alcotest.test_case "session mid-capture re-emission" `Slow test_session_reemit_mid_capture;
        Alcotest.test_case "server frame handling" `Slow test_server_frames;
        Alcotest.test_case "server two concurrent sessions" `Slow test_server_two_sessions;
        Alcotest.test_case "server scrape schema" `Slow test_server_scrape_schema;
        QCheck_alcotest.to_alcotest snapshot_roundtrip_prop;
        QCheck_alcotest.to_alcotest snapshot_corruption_prop;
        QCheck_alcotest.to_alcotest journal_tail_prop;
        Alcotest.test_case "snapshot/journal counters are u64" `Quick test_wide_counters;
        Alcotest.test_case "wire seq overflow rejected" `Quick test_seq_overflow_rejected;
        Alcotest.test_case "protocol v2 roundtrip" `Quick test_protocol_v2_roundtrip;
        QCheck_alcotest.to_alcotest torn_duplicate_prop;
        Alcotest.test_case "session persistence across restore" `Slow test_session_persistence;
        Alcotest.test_case "server v2 frame handling" `Slow test_server_v2_frames;
        Alcotest.test_case "server session overload" `Slow test_server_overload;
        Alcotest.test_case "push rejects bad arguments" `Quick test_push_rejects_bad_arguments;
        Alcotest.test_case "server rejects a zero window" `Quick test_server_rejects_zero_window;
        Alcotest.test_case "scrape closes its socket on failure" `Quick test_scrape_closes_socket;
      ] );
  ]
