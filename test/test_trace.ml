(* Tests for ripple.trace: PT packets, trace encode/decode and basic
   block trace utilities. *)

module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Builder = Ripple_isa.Builder
module Program = Ripple_isa.Program
module Packet = Ripple_trace.Packet
module Pt = Ripple_trace.Pt
module Bb_trace = Ripple_trace.Bb_trace
module W = Ripple_workloads

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------ Packet ------------------------------ *)

let roundtrip packets =
  let buf = Buffer.create 64 in
  List.iter (Packet.write buf) packets;
  let data = Buffer.to_bytes buf in
  let rec read pos acc =
    if pos >= Bytes.length data then List.rev acc
    else begin
      let p, next = Packet.read data ~pos in
      read next (p :: acc)
    end
  in
  read 0 []

let packet_eq a b =
  match (a, b) with
  | Packet.Tnt x, Packet.Tnt y -> x = y
  | Packet.Tip x, Packet.Tip y -> x = y
  | Packet.End_of_trace, Packet.End_of_trace -> true
  | _ -> false

let test_packet_tnt_roundtrip () =
  for n = 1 to Packet.max_tnt_bits do
    let bits = Array.init n (fun i -> i mod 2 = 0) in
    match roundtrip [ Packet.Tnt bits ] with
    | [ Packet.Tnt decoded ] -> check (Alcotest.array Alcotest.bool) "bits" bits decoded
    | _ -> Alcotest.fail "bad roundtrip"
  done

let test_packet_tip_roundtrip () =
  List.iter
    (fun addr ->
      match roundtrip [ Packet.Tip addr ] with
      | [ Packet.Tip decoded ] -> checki "addr" addr decoded
      | _ -> Alcotest.fail "bad roundtrip")
    [ 0; 1; 127; 128; 0x400000; 0x4000_0000; max_int / 2 ]

let test_packet_end () =
  match roundtrip [ Packet.End_of_trace ] with
  | [ Packet.End_of_trace ] -> ()
  | _ -> Alcotest.fail "bad roundtrip"

let test_packet_sequence () =
  let seq =
    [
      Packet.Tip 0x400000;
      Packet.Tnt [| true; false; true |];
      Packet.Tip 0x400040;
      Packet.Tnt [| false |];
      Packet.End_of_trace;
    ]
  in
  let decoded = roundtrip seq in
  checki "length" (List.length seq) (List.length decoded);
  List.iter2 (fun a b -> checkb "packet equal" true (packet_eq a b)) seq decoded

let prop_packet_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (oneof
           [
             map (fun n -> Packet.Tip (abs n)) nat;
             map
               (fun bits -> Packet.Tnt (Array.of_list (true :: bits)))
               (list_size (int_range 0 (Packet.max_tnt_bits - 1)) bool);
           ]))
  in
  QCheck.Test.make ~count:200 ~name:"packet stream roundtrip" (QCheck.make gen) (fun packets ->
      let decoded = roundtrip packets in
      List.length decoded = List.length packets && List.for_all2 packet_eq packets decoded)

(* -------------------------------- Pt -------------------------------- *)

(* A small branchy program plus a legal trace through it. *)
let branchy_program () =
  let b = Builder.create () in
  let entry = Builder.block b ~aligned:true ~bytes:20 ~term:Basic_block.Halt () in
  let left = Builder.block b ~bytes:24 ~term:Basic_block.Halt () in
  let right = Builder.block b ~bytes:28 ~term:Basic_block.Halt () in
  let join = Builder.block b ~bytes:16 ~term:Basic_block.Halt () in
  let callee = Builder.block b ~aligned:true ~bytes:32 ~term:Basic_block.Return () in
  Builder.set_term b entry (Basic_block.Cond { taken = left; fallthrough = right });
  Builder.set_term b left (Basic_block.Jump join);
  Builder.set_term b right (Basic_block.Fallthrough join);
  Builder.set_term b join (Basic_block.Call { callee; return_to = entry });
  (Builder.finish b ~entry, entry, left, right, join, callee)

let test_pt_roundtrip_manual () =
  let program, entry, left, right, join, callee = branchy_program () in
  let trace =
    [| entry; left; join; callee; entry; right; join; callee; entry; left; join |]
  in
  let decoded = Pt.decode program (Pt.encode program trace) in
  check (Alcotest.array Alcotest.int) "roundtrip" trace decoded

let test_pt_empty () =
  let program, _, _, _, _, _ = branchy_program () in
  let decoded = Pt.decode program (Pt.encode program [||]) in
  checki "empty" 0 (Array.length decoded)

let test_pt_single_block () =
  let program, entry, _, _, _, _ = branchy_program () in
  let decoded = Pt.decode program (Pt.encode program [| entry |]) in
  check (Alcotest.array Alcotest.int) "single" [| entry |] decoded

let test_pt_rejects_broken_edge () =
  let program, entry, _, _, join, _ = branchy_program () in
  (* entry -> join is not an edge. *)
  Alcotest.check_raises "broken edge" (Invalid_argument "Pt.encode: broken conditional edge")
    (fun () -> ignore (Pt.encode program [| entry; join |]))

let test_pt_workload_roundtrip () =
  (* End-to-end: encode/decode a real executor trace. *)
  let w = W.Cfg_gen.generate { W.Apps.kafka with W.App_model.seed = 5 } in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:60_000 in
  let program = w.W.Cfg_gen.program in
  let decoded = Pt.decode program (Pt.encode program trace) in
  check (Alcotest.array Alcotest.int) "roundtrip" trace decoded

let test_pt_compression () =
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:60_000 in
  let ratio = Pt.compression_ratio w.W.Cfg_gen.program trace in
  (* The PT promise: well under a byte per basic block. *)
  checkb "under 1 byte per block" true (ratio < 1.0);
  checkb "positive" true (ratio > 0.0)

(* ----------------------------- Bb_trace ----------------------------- *)

let test_bb_trace_counts () =
  let program, entry, left, _, join, callee = branchy_program () in
  let trace = [| entry; left; join; callee; entry |] in
  let counts = Bb_trace.exec_counts program trace in
  checki "entry twice" 2 counts.(entry);
  checki "left once" 1 counts.(left);
  let per_block id = (Program.block program id).Basic_block.n_instrs in
  checki "instr total"
    (per_block entry + per_block left + per_block join + per_block callee + per_block entry)
    (Bb_trace.n_instrs program trace)

let test_bb_trace_hint_instrs () =
  let program, entry, _, _, _, _ = branchy_program () in
  let hints = Array.make (Program.n_blocks program) [] in
  hints.(entry) <- [ Basic_block.Invalidate 1; Basic_block.Invalidate 2 ];
  let instrumented, _ = Program.with_hints program ~hints in
  checki "hint execs" 4 (Bb_trace.n_hint_instrs instrumented [| entry; entry |]);
  checki "plain program zero" 0 (Bb_trace.n_hint_instrs program [| entry; entry |])

let test_bb_trace_demand_stream () =
  let program, entry, left, _, _, _ = branchy_program () in
  let trace = [| entry; left |] in
  let stream = Bb_trace.demand_stream program trace in
  let expected =
    List.length (Basic_block.lines (Program.block program entry))
    + List.length (Basic_block.lines (Program.block program left))
  in
  checki "stream length" expected (Ripple_cache.Access_stream.length stream);
  Ripple_cache.Access_stream.iter
    (fun acc -> checkb "all demand" true (Ripple_cache.Access.packed_is_demand acc))
    stream;
  checki "first access block" entry
    (Ripple_cache.Access.packed_block (Ripple_cache.Access_stream.get stream 0))

let test_bb_trace_kernel_fraction () =
  let b = Builder.create () in
  let u = Builder.block b ~bytes:16 ~term:Basic_block.Halt () in
  let k = Builder.block b ~privilege:Basic_block.Kernel ~bytes:16 ~term:Basic_block.Halt () in
  let program = Builder.finish b ~entry:u in
  check (Alcotest.float 1e-9) "half kernel" 0.5
    (Bb_trace.kernel_fraction program [| u; k; k; u |]);
  check (Alcotest.float 1e-9) "empty" 0.0 (Bb_trace.kernel_fraction program [||])

let qcheck = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "trace.packet",
      [
        Alcotest.test_case "tnt roundtrip" `Quick test_packet_tnt_roundtrip;
        Alcotest.test_case "tip roundtrip" `Quick test_packet_tip_roundtrip;
        Alcotest.test_case "end" `Quick test_packet_end;
        Alcotest.test_case "sequence" `Quick test_packet_sequence;
        qcheck prop_packet_roundtrip;
      ] );
    ( "trace.pt",
      [
        Alcotest.test_case "manual roundtrip" `Quick test_pt_roundtrip_manual;
        Alcotest.test_case "empty" `Quick test_pt_empty;
        Alcotest.test_case "single block" `Quick test_pt_single_block;
        Alcotest.test_case "rejects broken edge" `Quick test_pt_rejects_broken_edge;
        Alcotest.test_case "workload roundtrip" `Quick test_pt_workload_roundtrip;
        Alcotest.test_case "compression" `Quick test_pt_compression;
      ] );
    ( "trace.bb_trace",
      [
        Alcotest.test_case "counts" `Quick test_bb_trace_counts;
        Alcotest.test_case "hint instrs" `Quick test_bb_trace_hint_instrs;
        Alcotest.test_case "demand stream" `Quick test_bb_trace_demand_stream;
        Alcotest.test_case "kernel fraction" `Quick test_bb_trace_kernel_fraction;
      ] );
  ]
