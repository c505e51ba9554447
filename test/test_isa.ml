(* Tests for ripple.isa: addresses, basic blocks, builder and program
   layout. *)

module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Builder = Ripple_isa.Builder
module Program = Ripple_isa.Program

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------- Addr ------------------------------- *)

let test_addr_line_arithmetic () =
  checki "line size" 64 Addr.line_size;
  checki "line of 0" 0 (Addr.line_of 0);
  checki "line of 63" 0 (Addr.line_of 63);
  checki "line of 64" 1 (Addr.line_of 64);
  checki "base of line 2" 128 (Addr.base_of_line 2);
  checki "offset" 5 (Addr.offset 69)

let test_addr_lines_of_range () =
  check (Alcotest.list Alcotest.int) "within one line" [ 1 ] (Addr.lines_of_range 64 ~bytes:64);
  check (Alcotest.list Alcotest.int) "crosses boundary" [ 0; 1 ] (Addr.lines_of_range 60 ~bytes:8);
  check (Alcotest.list Alcotest.int) "empty" [] (Addr.lines_of_range 100 ~bytes:0);
  check (Alcotest.list Alcotest.int) "three lines" [ 0; 1; 2 ]
    (Addr.lines_of_range 10 ~bytes:130)

let test_addr_count_matches_list () =
  for addr = 0 to 200 do
    let bytes = (addr * 7 mod 90) + 1 in
    checki "count = list length"
      (List.length (Addr.lines_of_range addr ~bytes))
      (Addr.count_lines_of_range addr ~bytes)
  done

let test_addr_set_index () =
  checki "set of line 0" 0 (Addr.set_index 0 ~sets:64);
  checki "set of line 64" 0 (Addr.set_index 64 ~sets:64);
  checki "set of line 65" 1 (Addr.set_index 65 ~sets:64)

let prop_lines_contiguous =
  QCheck.Test.make ~count:500 ~name:"lines_of_range is contiguous and covers the range"
    QCheck.(pair (int_range 0 100_000) (int_range 1 1_000))
    (fun (addr, bytes) ->
      let lines = Addr.lines_of_range addr ~bytes in
      let first = Addr.line_of addr and last = Addr.line_of (addr + bytes - 1) in
      lines = List.init (last - first + 1) (fun i -> first + i))

(* --------------------------- Basic_block ---------------------------- *)

let block ?(addr = 0) ?(bytes = 40) ?(hints = [||]) term =
  {
    Basic_block.id = 0;
    addr;
    bytes;
    n_instrs = 10;
    privilege = Basic_block.User;
    jit = false;
    term;
    hints;
  }

let test_block_totals () =
  let b = block ~hints:[| Basic_block.Invalidate 3; Basic_block.Demote 4 |] Basic_block.Return in
  checki "total bytes includes hints" (40 + (2 * Basic_block.hint_bytes)) (Basic_block.total_bytes b);
  checki "total instrs includes hints" 12 (Basic_block.total_instrs b)

let test_block_lines_ignore_hints () =
  (* Layout-preserving injection: lines depend on code bytes only. *)
  let plain = block ~addr:100 Basic_block.Return in
  let hinted = block ~addr:100 ~hints:[| Basic_block.Invalidate 9 |] Basic_block.Return in
  check (Alcotest.list Alcotest.int) "same lines" (Basic_block.lines plain)
    (Basic_block.lines hinted)

let test_block_successors () =
  check (Alcotest.list Alcotest.int) "cond" [ 3; 4 ]
    (Basic_block.successors (block (Basic_block.Cond { taken = 3; fallthrough = 4 })));
  check (Alcotest.list Alcotest.int) "call" [ 7 ]
    (Basic_block.successors (block (Basic_block.Call { callee = 7; return_to = 8 })));
  check (Alcotest.list Alcotest.int) "return" [] (Basic_block.successors (block Basic_block.Return))

let test_block_classification () =
  checkb "cond is conditional" true
    (Basic_block.is_conditional (block (Basic_block.Cond { taken = 0; fallthrough = 0 })));
  checkb "return is indirect" true (Basic_block.is_indirect (block Basic_block.Return));
  checkb "jump is not indirect" false (Basic_block.is_indirect (block (Basic_block.Jump 0)))

let test_hint_line () =
  checki "invalidate" 5 (Basic_block.hint_line (Basic_block.Invalidate 5));
  checki "demote" 6 (Basic_block.hint_line (Basic_block.Demote 6))

(* ------------------------ Builder / Program ------------------------- *)

let small_program () =
  let b = Builder.create () in
  let entry = Builder.block b ~aligned:true ~bytes:32 ~term:Basic_block.Halt () in
  let loop = Builder.block b ~bytes:48 ~term:Basic_block.Halt () in
  let exit = Builder.block b ~bytes:16 ~term:Basic_block.Halt () in
  Builder.set_term b entry (Basic_block.Fallthrough loop);
  Builder.set_term b loop (Basic_block.Cond { taken = loop; fallthrough = exit });
  (Builder.finish b ~entry, entry, loop, exit)

let test_builder_layout () =
  let program, entry, loop, exit = small_program () in
  checki "three blocks" 3 (Program.n_blocks program);
  let be = Program.block program entry in
  let bl = Program.block program loop in
  let bx = Program.block program exit in
  checki "entry at user base" Program.user_base be.Basic_block.addr;
  checki "loop packed after entry" (Program.user_base + 32) bl.Basic_block.addr;
  checki "exit packed after loop" (Program.user_base + 32 + 48) bx.Basic_block.addr

let test_builder_alignment () =
  let b = Builder.create () in
  let first = Builder.block b ~bytes:10 ~term:Basic_block.Halt () in
  let second = Builder.block b ~aligned:true ~bytes:10 ~term:Basic_block.Halt () in
  let program = Builder.finish b ~entry:first in
  let addr = (Program.block program second).Basic_block.addr in
  checki "aligned to 16" 0 (addr mod Program.block_alignment)

let test_builder_kernel_region () =
  let b = Builder.create () in
  let user = Builder.block b ~bytes:10 ~term:Basic_block.Halt () in
  let kernel =
    Builder.block b ~privilege:Basic_block.Kernel ~bytes:10 ~term:Basic_block.Halt ()
  in
  let program = Builder.finish b ~entry:user in
  checkb "kernel above kernel_base" true
    ((Program.block program kernel).Basic_block.addr >= Program.kernel_base);
  checkb "user below kernel_base" true
    ((Program.block program user).Basic_block.addr < Program.kernel_base)

let test_builder_straight_line () =
  let b = Builder.create () in
  let first, last = Builder.straight_line b ~bytes_per_block:20 ~n:5 () in
  let program = Builder.finish b ~entry:first in
  checki "five blocks" 5 (Program.n_blocks program);
  checki "ids contiguous" (first + 4) last;
  (* All but the last fall through to the next. *)
  for i = first to last - 1 do
    match (Program.block program i).Basic_block.term with
    | Basic_block.Fallthrough next -> checki "chain" (i + 1) next
    | _ -> Alcotest.fail "expected fallthrough"
  done

let test_program_block_at () =
  let program, entry, loop, _ = small_program () in
  let be = Program.block program entry in
  (match Program.block_at program be.Basic_block.addr with
  | Some b -> checki "exact start" entry b.Basic_block.id
  | None -> Alcotest.fail "not found");
  (match Program.block_at program (be.Basic_block.addr + 31) with
  | Some b -> checki "last byte" entry b.Basic_block.id
  | None -> Alcotest.fail "not found");
  (match Program.block_at program (be.Basic_block.addr + 32) with
  | Some b -> checki "next block start" loop b.Basic_block.id
  | None -> Alcotest.fail "not found");
  check Alcotest.bool "below text" true (Program.block_at program 0 = None)

let test_program_statics () =
  let program, _, _, _ = small_program () in
  checki "static bytes" (32 + 48 + 16) (Program.static_bytes program);
  checki "no hints yet" 0 (Program.static_hints program);
  checkb "footprint lines positive" true (Program.footprint_lines program > 0)

let test_program_with_hints () =
  let program, entry, loop, _ = small_program () in
  let hints = Array.make (Program.n_blocks program) [] in
  hints.(loop) <- [ Basic_block.Invalidate 123 ];
  let instrumented, remap = Program.with_hints program ~hints in
  checki "hint count" 1 (Program.static_hints instrumented);
  checki "static bytes grow" (Program.static_bytes program + Basic_block.hint_bytes)
    (Program.static_bytes instrumented);
  (* Layout-preserving: addresses unchanged, remap is identity. *)
  let old_addr = (Program.block program entry).Basic_block.addr in
  checki "addresses unchanged" old_addr (Program.block instrumented entry).Basic_block.addr;
  checki "remap identity" 12345 (remap 12345);
  (* The original program is untouched. *)
  checki "original keeps no hints" 0 (Program.static_hints program)

(* [with_hints] and [relocate] share the address order [Program.v]
   computed, so [block_at] must still resolve to the rewritten block
   records: the one carrying the hints, and the shifted one.  Kernel
   and user blocks interleave by id, so address order is not id
   order. *)
let test_program_block_at_after_rewrite () =
  let b = Builder.create () in
  let u0 = Builder.block b ~bytes:40 ~term:Basic_block.Halt () in
  let k0 = Builder.block b ~privilege:Basic_block.Kernel ~bytes:24 ~term:Basic_block.Halt () in
  let u1 = Builder.block b ~bytes:72 ~term:Basic_block.Halt () in
  let k1 = Builder.block b ~privilege:Basic_block.Kernel ~bytes:8 ~term:Basic_block.Halt () in
  Builder.set_term b u0 (Basic_block.Call { callee = k0; return_to = u1 });
  Builder.set_term b k0 (Basic_block.Jump k1);
  Builder.set_term b k1 Basic_block.Return;
  let program = Builder.finish b ~entry:u0 in
  let hints = Array.make (Program.n_blocks program) [] in
  hints.(u1) <- [ Basic_block.Invalidate 7 ];
  hints.(k1) <- [ Basic_block.Demote 9; Basic_block.Invalidate 11 ];
  let instrumented, _ = Program.with_hints program ~hints in
  List.iter
    (fun id ->
      let blk = Program.block instrumented id in
      match Program.block_at instrumented (blk.Basic_block.addr + blk.Basic_block.bytes - 1) with
      | Some found ->
        checki "found by address" id found.Basic_block.id;
        checkb "the record carrying the hints" true (found == blk);
        checki "hint count" (List.length hints.(id)) (Array.length found.Basic_block.hints)
      | None -> Alcotest.fail "not found")
    [ u0; k0; u1; k1 ];
  let shifted = Program.relocate instrumented ~line_shift:3 in
  let delta = 3 * Addr.line_size in
  List.iter
    (fun id ->
      let old_addr = (Program.block instrumented id).Basic_block.addr in
      match Program.block_at shifted (old_addr + delta) with
      | Some found ->
        checki "shifted block found" id found.Basic_block.id;
        checki "at its shifted address" (old_addr + delta) found.Basic_block.addr;
        checkb "the relocated record" true (found == Program.block shifted id)
      | None -> Alcotest.fail "shifted block not found")
    [ u0; k0; u1; k1 ];
  checkb "old start of the first user block is unmapped" true
    (Program.block_at shifted (Program.block instrumented u0).Basic_block.addr = None)

let qcheck = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "isa.addr",
      [
        Alcotest.test_case "line arithmetic" `Quick test_addr_line_arithmetic;
        Alcotest.test_case "lines_of_range" `Quick test_addr_lines_of_range;
        Alcotest.test_case "count matches list" `Quick test_addr_count_matches_list;
        Alcotest.test_case "set index" `Quick test_addr_set_index;
        qcheck prop_lines_contiguous;
      ] );
    ( "isa.basic_block",
      [
        Alcotest.test_case "totals" `Quick test_block_totals;
        Alcotest.test_case "lines ignore hints" `Quick test_block_lines_ignore_hints;
        Alcotest.test_case "successors" `Quick test_block_successors;
        Alcotest.test_case "classification" `Quick test_block_classification;
        Alcotest.test_case "hint line" `Quick test_hint_line;
      ] );
    ( "isa.program",
      [
        Alcotest.test_case "layout" `Quick test_builder_layout;
        Alcotest.test_case "alignment" `Quick test_builder_alignment;
        Alcotest.test_case "kernel region" `Quick test_builder_kernel_region;
        Alcotest.test_case "straight line" `Quick test_builder_straight_line;
        Alcotest.test_case "block_at" `Quick test_program_block_at;
        Alcotest.test_case "statics" `Quick test_program_statics;
        Alcotest.test_case "with_hints" `Quick test_program_with_hints;
        Alcotest.test_case "block_at after with_hints and relocate" `Quick
          test_program_block_at_after_rewrite;
      ] );
  ]
