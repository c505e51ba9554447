(* Tests for ripple.analysis: the static verifier — structural CFG
   checks, dominators, hint classification, the lint
   front door — plus the provenance/drop-accounting satellites it rides
   with (Injector placements, Cue_block.analyze_report, the pipeline
   verify gate). *)

module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program
module Builder = Ripple_isa.Builder
module Geometry = Ripple_cache.Geometry
module Access = Ripple_cache.Access
module Json = Ripple_util.Json
module Finding = Ripple_analysis.Finding
module Cfg = Ripple_analysis.Cfg
module Dominance = Ripple_analysis.Dominance
module Icheck = Ripple_analysis.Invalidation_check
module Lint = Ripple_analysis.Lint
module Eviction_window = Ripple_core.Eviction_window
module Cue_block = Ripple_core.Cue_block
module Injector = Ripple_core.Injector
module Pipeline = Ripple_core.Pipeline
module W = Ripple_workloads

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-9)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ub = Program.user_base

(* A block record with addresses assigned by hand, bypassing layout so
   deliberately broken inputs can be expressed. *)
let mk ?(bytes = 64) ?(privilege = Basic_block.User) ?(jit = false) ?(hints = [||]) ~id ~addr
    term =
  {
    Basic_block.id;
    addr;
    bytes;
    n_instrs = max 1 (bytes / 4);
    privilege;
    jit;
    term;
    hints;
  }

(* Blocks on consecutive cache lines from user_base. *)
let at k = ub + (k * Addr.line_size)
let line_at k = Addr.line_of (at k)
let has code (s : Lint.summary) = List.exists (fun f -> f.Finding.code = code) s.Lint.findings

let flagged code ~block (s : Lint.summary) =
  List.exists
    (fun f -> f.Finding.code = code && f.Finding.block = Some block)
    s.Lint.findings

(* --------------------------- structural ----------------------------- *)

let test_structural_dangling () =
  let s = Lint.check_blocks ~entry:0 [| mk ~id:0 ~addr:(at 0) (Basic_block.Jump 7) |] in
  checkb "dangling successor flagged" true (has Finding.Dangling_successor s);
  checki "is an error" 2 (Lint.exit_code s);
  checkb "gates semantic layers" true s.Lint.structural_gate;
  let s =
    Lint.check_blocks ~entry:0
      [|
        mk ~id:0 ~addr:(at 0) (Basic_block.Call { callee = 1; return_to = 9 });
        mk ~id:1 ~addr:(at 1) Basic_block.Return;
      |]
  in
  checkb "dangling return_to flagged" true (has Finding.Dangling_return s)

let test_structural_entry_and_ids () =
  let s = Lint.check_blocks ~entry:5 [| mk ~id:0 ~addr:(at 0) Basic_block.Halt |] in
  checkb "entry out of range" true (has Finding.Entry_out_of_range s);
  let s = Lint.check_blocks ~entry:0 [| mk ~id:1 ~addr:(at 0) Basic_block.Halt |] in
  checkb "id mismatch" true (has Finding.Id_mismatch s);
  let s = Lint.check_blocks ~entry:0 [| mk ~bytes:0 ~id:0 ~addr:(at 0) Basic_block.Halt |] in
  checkb "nonpositive extent" true (has Finding.Nonpositive_extent s)

let test_structural_layout () =
  (* User block below its region. *)
  let s =
    Lint.check_blocks ~entry:0 [| mk ~id:0 ~addr:(ub - Addr.line_size) Basic_block.Halt |]
  in
  checkb "region violation" true (has Finding.Region_violation s);
  (* Two blocks sharing bytes. *)
  let s =
    Lint.check_blocks ~entry:0
      [|
        mk ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
        mk ~id:1 ~addr:(at 0 + 32) Basic_block.Halt;
      |]
  in
  checkb "overlap" true (has Finding.Overlapping_blocks s);
  (* Alignment requested but not honoured. *)
  let s =
    Lint.check_blocks ~entry:0 ~aligned:[| true |]
      [| mk ~id:0 ~addr:(at 0 + 8) Basic_block.Halt |]
  in
  checkb "misaligned" true (has Finding.Misaligned_block s)

let test_structural_orphan_is_info () =
  let s =
    Lint.check_blocks ~entry:0
      [|
        mk ~id:0 ~addr:(at 0) (Basic_block.Jump 0);
        mk ~id:1 ~addr:(at 1) Basic_block.Halt;
      |]
  in
  checkb "orphan flagged" true (flagged Finding.Unreachable_block ~block:1 s);
  checki "as info only" 0 (Lint.exit_code s);
  checki "no errors" 0 s.Lint.errors;
  checki "no warnings" 0 s.Lint.warnings;
  checki "one info" 1 s.Lint.infos

let test_structural_gate_skips_hints () =
  (* A broken graph carrying a hint: the hint must not be classified. *)
  let s =
    Lint.check_blocks ~entry:0
      [| mk ~hints:[| Basic_block.Invalidate (line_at 1) |] ~id:0 ~addr:(at 0) (Basic_block.Jump 9) |]
  in
  checkb "gate set" true s.Lint.structural_gate;
  checki "no hints classified" 0 s.Lint.hints.Lint.total

(* ---------------------------- dominance ----------------------------- *)

let test_dominance_diamond () =
  let succs = [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] in
  let d = Dominance.compute ~n:4 ~entry:0 ~succs:(fun i -> succs.(i)) in
  checkb "idom 1 = 0" true (Dominance.idom d 1 = Some 0);
  checkb "idom 2 = 0" true (Dominance.idom d 2 = Some 0);
  checkb "join dominated by fork" true (Dominance.idom d 3 = Some 0);
  checkb "entry has no idom" true (Dominance.idom d 0 = None);
  checkb "0 dominates 3" true (Dominance.dominates d ~dom:0 3);
  checkb "1 does not dominate 3" false (Dominance.dominates d ~dom:1 3);
  checkb "reflexive" true (Dominance.dominates d ~dom:3 3)

let test_dominance_loop_and_unreachable () =
  let succs = [| [ 1 ]; [ 2 ]; [ 1; 3 ]; []; [ 0 ] |] in
  let d = Dominance.compute ~n:5 ~entry:0 ~succs:(fun i -> succs.(i)) in
  checkb "idom of loop body" true (Dominance.idom d 2 = Some 1);
  checkb "loop head dominates exit" true (Dominance.dominates d ~dom:1 3);
  checkb "node 4 unreachable" false (Dominance.is_reachable d 4);
  checkb "unreachable has no idom" true (Dominance.idom d 4 = None);
  checkb "nothing dominates unreachable" false (Dominance.dominates d ~dom:0 4)

(* ------------------------- classification --------------------------- *)

(* Tiny cache: 2 ways x 4 sets, so blocks 4 lines apart conflict. *)
let tiny_geometry = Geometry.v ~size_bytes:(2 * 4 * Addr.line_size) ~ways:2

let classify blocks = Icheck.classify ~geometry:tiny_geometry ~entry:0 blocks

let test_classify_harmful_direct () =
  let blocks =
    [|
      mk
        ~hints:[| Basic_block.Invalidate (line_at 1) |]
        ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk ~id:1 ~addr:(at 1) Basic_block.Halt;
    |]
  in
  match classify blocks with
  | [ (site, Icheck.Harmful { reuse_block; conflicts }) ] ->
    checki "site block" 0 site.Icheck.block;
    checkb "site line" true (site.Icheck.line = line_at 1);
    checki "reused by successor" 1 reuse_block;
    checki "no conflicts on the path" 0 conflicts
  | _ -> Alcotest.fail "expected one harmful classification"

let test_classify_safe_dead () =
  (* Victim line belongs to a block no path from the hint reaches. *)
  let blocks =
    [|
      mk ~hints:[| Basic_block.Invalidate (line_at 1) |] ~id:0 ~addr:(at 0) Basic_block.Halt;
      mk ~id:1 ~addr:(at 1) Basic_block.Halt;
    |]
  in
  (match classify blocks with
  | [ (_, Icheck.Safe_dead) ] -> ()
  | _ -> Alcotest.fail "expected safe (dead)")

let test_classify_safe_pressure () =
  (* Reuse exists, but both paths first touch [ways] = 2 distinct lines
     of the victim's set (blocks 4 and 8 lines in, same set as 12). *)
  let blocks =
    [|
      mk
        ~hints:[| Basic_block.Invalidate (line_at 12) |]
        ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk ~id:1 ~addr:(at 4) (Basic_block.Fallthrough 2);
      mk ~id:2 ~addr:(at 8) (Basic_block.Fallthrough 3);
      mk ~id:3 ~addr:(at 12) Basic_block.Halt;
    |]
  in
  (match classify blocks with
  | [ (_, Icheck.Safe_pressure) ] -> ()
  | _ -> Alcotest.fail "expected safe (pressure)");
  (* Remove one conflicting block: 1 < ways conflicts, harmful again. *)
  let blocks =
    [|
      mk
        ~hints:[| Basic_block.Invalidate (line_at 12) |]
        ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk ~id:1 ~addr:(at 4) (Basic_block.Fallthrough 2);
      mk ~id:2 ~addr:(at 12) Basic_block.Halt;
    |]
  in
  match classify blocks with
  | [ (_, Icheck.Harmful { conflicts; _ }) ] -> checki "one conflict" 1 conflicts
  | _ -> Alcotest.fail "expected harmful with one conflict"

let test_classify_redundant () =
  let l = line_at 100 in
  let blocks =
    [|
      mk ~hints:[| Basic_block.Invalidate l |] ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk ~hints:[| Basic_block.Invalidate l |] ~id:1 ~addr:(at 1) Basic_block.Halt;
    |]
  in
  (match classify blocks with
  | [ (_, Icheck.Safe_dead); (site, Icheck.Redundant { earlier }) ] ->
    checki "redundant site" 1 site.Icheck.block;
    checki "witness" 0 earlier
  | _ -> Alcotest.fail "expected dead + redundant");
  (* Degenerate case: a duplicate inside one block. *)
  let blocks =
    [| mk ~hints:[| Basic_block.Invalidate l; Basic_block.Invalidate l |] ~id:0 ~addr:(at 0) Basic_block.Halt |]
  in
  match classify blocks with
  | [ (_, Icheck.Safe_dead); (_, Icheck.Redundant { earlier }) ] -> checki "same block" 0 earlier
  | _ -> Alcotest.fail "expected dead + same-block redundant"

let test_classify_reference_defeats_redundancy () =
  (* The second hint's own block re-references the line first, so it is
     not redundant (and, having no successors, it is dead). *)
  let blocks =
    [|
      mk
        ~hints:[| Basic_block.Invalidate (line_at 1) |]
        ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk ~hints:[| Basic_block.Invalidate (line_at 1) |] ~id:1 ~addr:(at 1) Basic_block.Halt;
    |]
  in
  match classify blocks with
  | [ (_, Icheck.Harmful _); (_, Icheck.Safe_dead) ] -> ()
  | _ -> Alcotest.fail "expected harmful then safe (dead)"

let test_classify_prunes_at_reinvalidation () =
  (* A second hint on the same line between hint and reuse shields the
     upstream hint (past the re-invalidation the line misses regardless
     of what the first hint did), and the second hint is itself
     redundant: the dominating first hint already left the line
     invalid.  The reuse at bb2 misses either way; neither hint alone
     converts a hit. *)
  let blocks =
    [|
      mk
        ~hints:[| Basic_block.Invalidate (line_at 12) |]
        ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk
        ~hints:[| Basic_block.Invalidate (line_at 12) |]
        ~id:1 ~addr:(at 1) (Basic_block.Fallthrough 2);
      mk ~id:2 ~addr:(at 12) Basic_block.Halt;
    |]
  in
  match classify blocks with
  | [ (_, Icheck.Safe_dead); (site, Icheck.Redundant { earlier }) ] ->
    checki "redundant site" 1 site.Icheck.block;
    checki "dominating witness" 0 earlier
  | _ -> Alcotest.fail "expected shielded dead + redundant"

(* The safe split: [Safe_pressure] when the line is still referenced
   after the hint (past at least [ways] same-set conflicts, else the
   hint would be harmful), [Safe_dead] when no path re-references it
   before another hint on the line. *)

let test_classify_pressure_at_a_distance () =
  (* Reuse four blocks past the hint, behind two same-set lines (4 and
     8 lines in); the hint in the reusing block, at the line's last
     use, leaves nothing to re-reference. *)
  let blocks =
    [|
      mk
        ~hints:[| Basic_block.Invalidate (line_at 12) |]
        ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk ~id:1 ~addr:(at 4) (Basic_block.Fallthrough 2);
      mk ~id:2 ~addr:(at 13) (Basic_block.Fallthrough 3);
      mk ~id:3 ~addr:(at 8) (Basic_block.Fallthrough 4);
      mk ~id:4 ~addr:(at 14) (Basic_block.Fallthrough 5);
      mk ~hints:[| Basic_block.Invalidate (line_at 12) |] ~id:5 ~addr:(at 12) Basic_block.Halt;
    |]
  in
  match classify blocks with
  | [ (_, Icheck.Safe_pressure); (site, Icheck.Safe_dead) ] ->
    checki "dead past the last use" 5 site.Icheck.block
  | _ -> Alcotest.fail "expected safe (pressure), then safe (dead) at the last use"

let test_classify_rehint_kills_liveness () =
  (* The same distant reuse, but block 2 hints the line again: past
     that hint the reuse misses whatever block 0 did, so block 0's hint
     is dead, and block 2's is redundant behind it. *)
  let blocks =
    [|
      mk
        ~hints:[| Basic_block.Invalidate (line_at 12) |]
        ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk ~id:1 ~addr:(at 4) (Basic_block.Fallthrough 2);
      mk
        ~hints:[| Basic_block.Demote (line_at 12) |]
        ~id:2 ~addr:(at 13) (Basic_block.Fallthrough 3);
      mk ~id:3 ~addr:(at 8) (Basic_block.Fallthrough 4);
      mk ~id:4 ~addr:(at 12) Basic_block.Halt;
    |]
  in
  match classify blocks with
  | [ (_, Icheck.Safe_dead); (site, Icheck.Redundant { earlier }) ] ->
    checki "re-hint site" 2 site.Icheck.block;
    checki "dominating witness" 0 earlier
  | _ -> Alcotest.fail "expected safe (dead), then redundant"

let test_classify_reference_before_own_hint () =
  (* Block 3 references the line and then hints it: its code runs
     before its hint, so the reuse still counts for block 0's hint. *)
  let blocks =
    [|
      mk
        ~hints:[| Basic_block.Invalidate (line_at 12) |]
        ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk ~id:1 ~addr:(at 4) (Basic_block.Fallthrough 2);
      mk ~id:2 ~addr:(at 8) (Basic_block.Fallthrough 3);
      mk ~hints:[| Basic_block.Invalidate (line_at 12) |] ~id:3 ~addr:(at 12) Basic_block.Halt;
    |]
  in
  match classify blocks with
  | [ (_, Icheck.Safe_pressure); (_, Icheck.Safe_dead) ] -> ()
  | _ -> Alcotest.fail "expected safe (pressure), then safe (dead)"

(* ------------------------------ lint -------------------------------- *)

let harmful_blocks ~demote =
  let hint =
    if demote then Basic_block.Demote (line_at 1) else Basic_block.Invalidate (line_at 1)
  in
  [|
    mk ~hints:[| hint |] ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
    mk ~id:1 ~addr:(at 1) Basic_block.Halt;
  |]

let test_lint_harmful_severity () =
  (* Unjustified harmful invalidation: an error. *)
  let s =
    Lint.check_blocks ~geometry:tiny_geometry ~entry:0 (harmful_blocks ~demote:false)
  in
  checki "error without provenance" 2 (Lint.exit_code s);
  checki "harmful counted" 1 s.Lint.hints.Lint.harmful;
  (* The same hint with quoted profile evidence: an audit warning. *)
  let provenance =
    [ { Lint.block = 0; line = line_at 1; probability = 0.9; windows = 5 } ]
  in
  let s =
    Lint.check_blocks ~geometry:tiny_geometry ~provenance ~entry:0
      (harmful_blocks ~demote:false)
  in
  checki "warning with provenance" 1 (Lint.exit_code s);
  checki "no errors" 0 s.Lint.errors;
  (match s.Lint.findings with
  | [ f ] -> checkb "quotes the evidence" true (contains f.Finding.message "P=0.90")
  | _ -> Alcotest.fail "expected exactly one finding");
  (* A harmful demotion never errors. *)
  let s = Lint.check_blocks ~geometry:tiny_geometry ~entry:0 (harmful_blocks ~demote:true) in
  checki "demotion is a warning" 1 (Lint.exit_code s)

let test_lint_outside_footprint () =
  let blocks =
    [| mk ~hints:[| Basic_block.Invalidate (line_at 4096) |] ~id:0 ~addr:(at 0) Basic_block.Halt |]
  in
  let s = Lint.check_blocks ~entry:0 blocks in
  checkb "flagged" true (has Finding.Hint_outside_footprint s);
  checki "warning" 1 (Lint.exit_code s)

let test_lint_clean_program () =
  let b = Builder.create () in
  let b0 = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  let b1 = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  Builder.set_term b b0 (Basic_block.Fallthrough b1);
  let program = Builder.finish b ~entry:b0 in
  let s = Lint.check_program program in
  checki "no findings" 0 (List.length s.Lint.findings);
  checki "exit 0" 0 (Lint.exit_code s);
  checkb "no max severity" true (Lint.max_severity s = None)

let test_lint_json () =
  let s = Lint.check_blocks ~geometry:tiny_geometry ~entry:0 (harmful_blocks ~demote:false) in
  let j = Lint.to_json s in
  checkb "errors field" true (Json.member "errors" j = Some (Json.Int 1));
  checkb "gate field" true (Json.member "structural_gate" j = Some (Json.Bool false));
  match Json.member "hints" j with
  | Some h -> checkb "hint totals" true (Json.member "total" h = Some (Json.Int 1))
  | None -> Alcotest.fail "missing hints object"

(* --------------------- qcheck: mutation flagging -------------------- *)

let tiny_model seed =
  {
    W.Apps.verilator with
    W.App_model.name = "tiny";
    seed;
    n_functions = 12;
    hot_functions = 4;
    handler_blocks = 8;
    blocks_per_function = 6;
  }

let tiny_program seed = (W.Cfg_gen.generate (tiny_model seed)).W.Cfg_gen.program

let lint_mutated program blocks =
  Lint.check_blocks ~entry:(Program.entry program) blocks

let prop_mutation_dangling =
  QCheck.Test.make ~count:15 ~name:"lint flags a dangling successor"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let program = tiny_program seed in
      let blocks = Array.copy (Program.blocks program) in
      let n = Array.length blocks in
      let i = seed mod n in
      blocks.(i) <- { blocks.(i) with Basic_block.term = Basic_block.Jump (n + 5) };
      has Finding.Dangling_successor (lint_mutated program blocks))

let prop_mutation_overlap =
  QCheck.Test.make ~count:15 ~name:"lint flags overlapping byte ranges"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let program = tiny_program seed in
      let blocks = Array.copy (Program.blocks program) in
      let n = Array.length blocks in
      let i = seed mod n in
      (* Land on another block of the same privilege so the only broken
         invariant is the overlap. *)
      let j = ref ((i + 1) mod n) in
      while
        blocks.(!j).Basic_block.privilege <> blocks.(i).Basic_block.privilege || !j = i
      do
        j := (!j + 1) mod n
      done;
      blocks.(i) <- { blocks.(i) with Basic_block.addr = blocks.(!j).Basic_block.addr };
      has Finding.Overlapping_blocks (lint_mutated program blocks))

let prop_mutation_orphan =
  QCheck.Test.make ~count:15 ~name:"lint flags an appended orphan block"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let program = tiny_program seed in
      let old = Program.blocks program in
      let n = Array.length old in
      let max_end =
        Array.fold_left
          (fun acc (b : Basic_block.t) ->
            if b.Basic_block.privilege = Basic_block.User then
              max acc (b.Basic_block.addr + b.Basic_block.bytes)
            else acc)
          ub old
      in
      let orphan = mk ~id:n ~addr:(max_end + Addr.line_size) Basic_block.Halt in
      let blocks = Array.append old [| orphan |] in
      flagged Finding.Unreachable_block ~block:n (lint_mutated program blocks))

(* ------------------- nine apps, paper defaults ---------------------- *)

(* [Lint.to_json] without [abstract.solver]: the solver's counts record
   how the fixpoint was reached, not what it is, so only they may move
   when the solver does. *)
let lint_json_sans_solver s =
  match Lint.to_json s with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (function
           | "abstract", Json.Obj a -> ("abstract", Json.Obj (List.remove_assoc "solver" a))
           | kv -> kv)
         fields)
  | j -> j

(* MD5 of each app's [lint_json_sans_solver] in the run below: every
   fact count, bound, proof verdict and finding, byte for byte. *)
let nine_app_lint_digests =
  [
    ("cassandra", "f9b159fd80e798eb1e12cb9e121d4dbc");
    ("drupal", "71a2b3f388db76ae4dc446ce422d091a");
    ("finagle-chirper", "a25c6e30a22a05743c2b51221db960f2");
    ("finagle-http", "3b112e3f7dc2ca75cfa7710812ce5cf5");
    ("kafka", "a32cb412b0e4fba87a892904f9cfd0fa");
    ("mediawiki", "c9ea6e3b816250174fb80b49ae3b692a");
    ("tomcat", "6a3dc78e65c6dc3afb95a055e0d52827");
    ("verilator", "0189be0416986be5b2e5b89e84b84da3");
    ("wordpress", "856f8afc8dc4b21947060765728b03c6");
  ]

let test_nine_apps_no_errors () =
  List.iter
    (fun (m : W.App_model.t) ->
      let w = W.Cfg_gen.generate m in
      let program = w.W.Cfg_gen.program in
      let profile = W.Executor.run w ~input:W.Executor.train ~n_instrs:100_000 in
      let analysis =
        (Pipeline.run
           { Pipeline.Options.default with verify = true; prefetch = Pipeline.Fdip }
           ~source:program (Pipeline.Trace profile))
          .Pipeline.analysis
      in
      match analysis.Pipeline.lint with
      | None -> Alcotest.fail "verify = true must attach a lint summary"
      | Some s ->
        checki (m.W.App_model.name ^ ": no error findings") 0 s.Lint.errors;
        checki
          (m.W.App_model.name ^ ": hints all classified")
          analysis.Pipeline.injection.Injector.injected s.Lint.hints.Lint.total;
        let got = Digest.to_hex (Digest.string (Json.to_string (lint_json_sans_solver s))) in
        check Alcotest.string
          (m.W.App_model.name ^ ": lint json digest")
          (List.assoc m.W.App_model.name nine_app_lint_digests)
          got)
    W.Apps.all

(* At 100 k instructions (above) the nine apps place only 35 hints and
   five place none, so that run barely exercises the classifier.  At
   300 k under default options they place 2318: per app, the MD5 of
   (a) [classify]'s sites with their verdicts and witnesses, (b) the
   instrumented program's per-block hint arrays and (c)
   [injection.placements] in order. *)
let nine_app_300k_digests =
  [
    ( "cassandra",
      ( "d7685896a2425c5c1df062603027318c",
        "fad0ce38a4c7bbe88d7bde0c209f7f37",
        "c6d816efaba1892d4eb328cbdcba4449" ) );
    ( "drupal",
      ( "ad83744bc1abfe338b0b268275e6bb8a",
        "bd5d4110b29f93db481f102c585ad81b",
        "c85abd8a873156ef286bd2e891a9beca" ) );
    ( "finagle-chirper",
      ( "354131cdd90e8e285fa240a8bf92049b",
        "9f37eb3d765d8a80c21fdab5d8c7e7b5",
        "01b04a09d18cf771c200d772a85dbfa8" ) );
    ( "finagle-http",
      ( "8b75fb6e0ced47d8c98d508fb2193c5b",
        "91af4c30a412e39dde08ce6cb92d0726",
        "65c1f8f0a60dcbfb5cc9c512c0cf6d28" ) );
    ( "kafka",
      ( "c9d2b6718cd240179932a611460ac401",
        "0ff67e839c6dfcb0ae784f347ebbfcfc",
        "5b068c559e9196d7ab029bbf6948f145" ) );
    ( "mediawiki",
      ( "85bda336a3664027ef82838afe70aa38",
        "0743b18a14f035cedf37ba0aaa304551",
        "0a96778ffb8f792cb82c6a48a49eaa7e" ) );
    ( "tomcat",
      ( "637e5de4f1114c8961362578b11e9d8b",
        "218261686fab0a78db5364b1453d7074",
        "cabb675a98d4e4b968ed3a3137251769" ) );
    ( "verilator",
      ( "81d3179cfabf19e3e8fdb0cf6f111b02",
        "c5910a84c4e30c5a945c68b1e19e9e77",
        "70a10df23c66c90f78cc241ca98b884f" ) );
    ( "wordpress",
      ( "0f9630c059f35616c1e666061bb6fb6c",
        "8fc109958795325d13da6d13c748efd3",
        "2f5070e72bd9a0c3cdc919660ba069f3" ) );
  ]

let test_nine_apps_300k_pin () =
  let totals = Hashtbl.create 4 in
  let total cls = Option.value ~default:0 (Hashtbl.find_opt totals cls) in
  List.iter
    (fun (m : W.App_model.t) ->
      let name = m.W.App_model.name in
      let w = W.Cfg_gen.generate m in
      let profile = W.Executor.run w ~input:W.Executor.train ~n_instrs:300_000 in
      let outcome =
        Pipeline.run Pipeline.Options.default ~source:w.W.Cfg_gen.program
          (Pipeline.Trace profile)
      in
      let program = outcome.Pipeline.program in
      let geometry = Pipeline.Options.default.Pipeline.Options.config.Ripple_cpu.Config.l1i in
      let classified =
        Icheck.classify ~geometry ~entry:(Program.entry program) (Program.blocks program)
      in
      let digest f =
        let buf = Buffer.create 4096 in
        f buf;
        Digest.to_hex (Digest.string (Buffer.contents buf))
      in
      let sites =
        digest (fun buf ->
            List.iter
              (fun ((s : Icheck.site), c) ->
                let cls = Icheck.classification_name c in
                Hashtbl.replace totals cls (1 + total cls);
                Printf.bprintf buf "%d %d %d %b %s" s.Icheck.block s.Icheck.index s.Icheck.line
                  s.Icheck.demote cls;
                (match c with
                | Icheck.Harmful { reuse_block; conflicts } ->
                  Printf.bprintf buf " %d %d" reuse_block conflicts
                | Icheck.Redundant { earlier } -> Printf.bprintf buf " %d" earlier
                | Icheck.Safe_dead | Icheck.Safe_pressure -> ());
                Buffer.add_char buf '\n')
              classified)
      in
      let hints =
        digest (fun buf ->
            Program.iter
              (fun (b : Basic_block.t) ->
                Printf.bprintf buf "%d:" b.Basic_block.id;
                Array.iter
                  (function
                    | Basic_block.Invalidate l -> Printf.bprintf buf " i%d" l
                    | Basic_block.Demote l -> Printf.bprintf buf " d%d" l)
                  b.Basic_block.hints;
                Buffer.add_char buf '\n')
              program)
      in
      let placements =
        digest (fun buf ->
            List.iter
              (fun (p : Injector.placement) ->
                Printf.bprintf buf "%d %d %h %d\n" p.Injector.block p.Injector.line
                  p.Injector.probability p.Injector.windows)
              outcome.Pipeline.analysis.Pipeline.injection.Injector.placements)
      in
      let want_sites, want_hints, want_placements = List.assoc name nine_app_300k_digests in
      check Alcotest.string (name ^ ": classify digest") want_sites sites;
      check Alcotest.string (name ^ ": hint arrays digest") want_hints hints;
      check Alcotest.string (name ^ ": placements digest") want_placements placements)
    W.Apps.all;
  checki "safe_dead sites" 2230 (total "safe_dead");
  checki "safe_pressure sites" 0 (total "safe_pressure");
  checki "harmful sites" 65 (total "harmful");
  checki "redundant sites" 23 (total "redundant")

(* ----------------- satellite: cue-block drop report ----------------- *)

(* The Fig. 5 scenario from test_core: victim line 100 evicted twice,
   block 2 the best cue in both windows at P = 1.0. *)
let drops_scenario () =
  let d ~line ~block = Access.demand ~line ~block in
  let stream =
    [|
      d ~line:50 ~block:9; d ~line:100 ~block:5; d ~line:60 ~block:1; d ~line:61 ~block:2;
      d ~line:62 ~block:3; d ~line:60 ~block:1; d ~line:62 ~block:3; d ~line:62 ~block:3;
      d ~line:100 ~block:5; d ~line:60 ~block:1; d ~line:61 ~block:2; d ~line:62 ~block:3;
      d ~line:60 ~block:1; d ~line:62 ~block:3; d ~line:62 ~block:3;
    |]
  in
  let windows =
    [|
      { Eviction_window.victim = 100; start = 1; stop = 4 };
      { Eviction_window.victim = 100; start = 8; stop = 11 };
    |]
  in
  let exec_counts = Array.make 10 0 in
  Array.iter
    (fun (a : Access.t) -> exec_counts.(a.Access.block) <- exec_counts.(a.Access.block) + 1)
    stream;
  (Ripple_cache.Access_stream.of_array stream, windows, exec_counts)

let partition_holds (d : Cue_block.drops) =
  d.Cue_block.no_candidate + d.Cue_block.below_support + d.Cue_block.below_threshold
  + d.Cue_block.selected
  = d.Cue_block.windows_total

let test_drop_report () =
  let stream, windows, exec_counts = drops_scenario () in
  let report threshold min_support =
    snd (Cue_block.analyze_report ~min_support ~stream ~windows ~exec_counts ~threshold ())
  in
  let d = report 0.6 2 in
  checki "total" 2 d.Cue_block.windows_total;
  checki "selected" 2 d.Cue_block.selected;
  checki "none dropped" 0
    (d.Cue_block.no_candidate + d.Cue_block.below_support + d.Cue_block.below_threshold);
  checkb "partition" true (partition_holds d);
  (* Impossible threshold: same windows fall out for the threshold. *)
  let d = report 1.01 2 in
  checki "below threshold" 2 d.Cue_block.below_threshold;
  checki "nothing selected" 0 d.Cue_block.selected;
  checkb "partition" true (partition_holds d);
  (* Unreachable support floor. *)
  let d = report 0.6 99 in
  checki "below support" 2 d.Cue_block.below_support;
  checkb "partition" true (partition_holds d);
  (* No executed candidate at all. *)
  let stream, windows, _ = drops_scenario () in
  let d =
    snd
      (Cue_block.analyze_report ~min_support:2 ~stream ~windows
         ~exec_counts:(Array.make 10 0) ~threshold:0.6 ())
  in
  checki "no candidate" 2 d.Cue_block.no_candidate;
  checkb "partition" true (partition_holds d)

let test_drop_report_agrees_with_analyze () =
  let stream, windows, exec_counts = drops_scenario () in
  let decisions =
    Cue_block.analyze ~min_support:2 ~stream ~windows ~exec_counts ~threshold:0.6 ()
  in
  let decisions', d =
    Cue_block.analyze_report ~min_support:2 ~stream ~windows ~exec_counts ~threshold:0.6 ()
  in
  checkb "same decisions" true (decisions = decisions');
  checki "selected windows behind the decisions" 2 d.Cue_block.selected

(* ---------------- satellite: injector provenance -------------------- *)

let test_injector_placements () =
  let b = Builder.create () in
  let b0 = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  let b1 = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  let b2 = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  Builder.set_term b b0 (Basic_block.Fallthrough b1);
  Builder.set_term b b1 (Basic_block.Fallthrough b2);
  let program = Builder.finish b ~entry:b0 in
  let victim = Addr.line_of (Program.block program b2).Basic_block.addr in
  let decisions =
    [ { Cue_block.cue_block = b0; victim; probability = 0.8; windows = 4 } ]
  in
  let instrumented, _, stats = Injector.inject ~program ~decisions () in
  match stats.Injector.placements with
  | [ p ] ->
    checki "cue block" b0 p.Injector.block;
    checkf "probability" 0.8 p.Injector.probability;
    checki "window support" 4 p.Injector.windows;
    (* The placement's line is the post-remap operand actually injected. *)
    let hints = (Program.block instrumented b0).Basic_block.hints in
    checki "one hint placed" 1 (Array.length hints);
    checkb "operand matches" true (Basic_block.hint_line hints.(0) = p.Injector.line)
  | _ -> Alcotest.fail "expected exactly one placement"

(* ------------------ satellite: pipeline verify gate ----------------- *)

let test_pipeline_verify_gate () =
  let w = W.Cfg_gen.generate (tiny_model 17) in
  let program = w.W.Cfg_gen.program in
  let profile = W.Executor.run w ~input:W.Executor.train ~n_instrs:100_000 in
  let instrument verify =
    (Pipeline.run
       { Pipeline.Options.default with verify; prefetch = Pipeline.No_prefetch }
       ~source:program (Pipeline.Trace profile))
      .Pipeline.analysis
  in
  let off = instrument false in
  checkb "off by default" true (off.Pipeline.lint = None);
  let on = instrument true in
  (match on.Pipeline.lint with
  | None -> Alcotest.fail "verify must attach a summary"
  | Some s -> checki "no errors on its own output" 0 s.Lint.errors);
  (* Drop accounting covers every window either way. *)
  checki "drops cover all windows" on.Pipeline.n_windows
    on.Pipeline.drops.Cue_block.windows_total;
  checkb "partition" true (partition_holds on.Pipeline.drops)

(* --------------- layer 4: the dataflow engine (Fixpoint) ------------- *)

module Fixpoint = Ripple_analysis.Fixpoint
module Abs = Ripple_analysis.Abs_cache
module Cache = Ripple_cache.Cache
module Registry = Ripple_cache.Registry
module Simulator = Ripple_cpu.Simulator

(* Integers under [max]: the simplest tall chain, enough to exercise
   plain convergence and joins. *)
module FMax = Fixpoint.Make (struct
  type t = int

  let equal = Int.equal
  let join = max
end)

let test_fixpoint_straight_line () =
  (* 0 -> 1 -> 2 counts path length; node 3 is disconnected. *)
  let r =
    FMax.solve ~n:4 ~entries:[ (0, 0) ]
      ~preds:[| []; [ 0 ]; [ 1 ]; [] |]
      ~transfer:(fun _ x -> x + 1)
      ()
  in
  checkb "entry in" true (r.FMax.in_.(0) = Some 0);
  checkb "entry out" true (r.FMax.out.(0) = Some 1);
  checkb "chain end" true (r.FMax.out.(2) = Some 3);
  checkb "disconnected node stays bottom" true
    (r.FMax.in_.(3) = None && r.FMax.out.(3) = None)

let test_fixpoint_diamond_join () =
  (* Arms add 1 and 5: the merge point must see the lub, not an arm. *)
  let r =
    FMax.solve ~n:4 ~entries:[ (0, 0) ]
      ~preds:[| []; [ 0 ]; [ 0 ]; [ 1; 2 ] |]
      ~transfer:(fun v x -> if v = 1 then x + 1 else if v = 2 then x + 5 else x)
      ()
  in
  checkb "join of arms" true (r.FMax.in_.(3) = Some 5)

let test_fixpoint_loop_saturates () =
  (* A self loop under a capped increment climbs to the cap and stops. *)
  let r =
    FMax.solve ~n:1 ~entries:[ (0, 0) ]
      ~preds:[| [ 0 ] |]
      ~transfer:(fun _ x -> min (x + 1) 10)
      ()
  in
  checkb "reaches the cap" true (r.FMax.in_.(0) = Some 10);
  checkb "climbed, not guessed" true (r.FMax.stats.Fixpoint.iterations > 5)

(* --------------- layer 4: abstract cache interpretation -------------- *)

let abs_analyze blocks = Abs.analyze ~geometry:tiny_geometry ~entry:0 blocks
let fact abs ~block ~index = (Abs.facts abs).(block).(index)
let set_of line = Geometry.set_of_line tiny_geometry line

let test_abs_must_hit_and_always_miss () =
  (* Two half-line blocks sharing one line; the second invalidates it.
     Set 0's only reachable line is that one, so it is persistent. *)
  let with_hint hints =
    [|
      mk ~bytes:32 ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
      mk ~bytes:32 ~hints ~id:1 ~addr:(at 0 + 32) Basic_block.Halt;
    |]
  in
  let abs = abs_analyze (with_hint [| Basic_block.Invalidate (line_at 0) |]) in
  let f1 = fact abs ~block:1 ~index:0 in
  checkb "hit after the touch" true f1.Abs.must_hit;
  checkb "must implies must-LRU" true f1.Abs.must_hit_lru;
  (* The invalidation flows around the halt-to-entry closure edge, so
     block 0's access is may-absent on every incoming path. *)
  let f0 = fact abs ~block:0 ~index:0 in
  checkb "guaranteed cold miss" true f0.Abs.always_miss;
  checkb "not a must hit" false f0.Abs.must_hit;
  checkb "invalidation defeats first-miss-only" false (Abs.first_miss_only abs (line_at 0));
  (* Without the hint the closure loop keeps the line may-resident. *)
  let abs = abs_analyze (with_hint [||]) in
  let f0 = fact abs ~block:0 ~index:0 in
  checkb "no longer always-miss" false f0.Abs.always_miss;
  checkb "persistent set" true (Abs.persistent abs ~set:(set_of (line_at 0)));
  checkb "first-miss-only" true (Abs.first_miss_only abs (line_at 0))

let test_abs_conflict_vs_fit () =
  (* Three set-0 lines across a diamond overflow 2 ways: no
     policy-independent must fact survives the join, but the LRU age
     bound (one conflict on either arm) still proves the re-reference
     hits under LRU specifically. *)
  let diamond arm1 arm2 =
    [|
      mk ~bytes:32 ~id:0 ~addr:(at 0) (Basic_block.Cond { taken = 1; fallthrough = 2 });
      mk ~id:1 ~addr:arm1 (Basic_block.Jump 3);
      mk ~id:2 ~addr:arm2 (Basic_block.Jump 3);
      mk ~bytes:32 ~id:3 ~addr:(at 0 + 32) Basic_block.Halt;
    |]
  in
  let abs = abs_analyze (diamond (at 4) (at 8)) in
  let f = fact abs ~block:3 ~index:0 in
  checkb "no policy-independent proof" false f.Abs.must_hit;
  checkb "LRU age bound proves it" true f.Abs.must_hit_lru;
  checkb "set overflows" false (Abs.persistent abs ~set:(set_of (line_at 0)));
  (* Move the arms to other sets: the whole set-0 working set fits. *)
  let abs = abs_analyze (diamond (at 1) (at 2)) in
  let f = fact abs ~block:3 ~index:0 in
  checkb "must hit under every policy" true f.Abs.must_hit;
  checkb "set fits" true (Abs.persistent abs ~set:(set_of (line_at 0)))

let test_abs_verdicts () =
  let l = line_at 0 in
  (* Dead: a second invalidation of the same line later in the block
     shields the first; the second then finds the line may-absent. *)
  let abs =
    abs_analyze
      [|
        mk ~bytes:32 ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
        mk ~bytes:32
          ~hints:[| Basic_block.Invalidate l; Basic_block.Invalidate l |]
          ~id:1 ~addr:(at 0 + 32) Basic_block.Halt;
      |]
  in
  checkb "first is dead" true (Abs.prove abs ~block:1 ~index:0 = Abs.Proved_dead);
  checkb "second is a no-op" true (Abs.prove abs ~block:1 ~index:1 = Abs.Proved_noop);
  checkb "dead is safe" true (Abs.proved_safe Abs.Proved_dead);
  checkb "no-op is not kept" false (Abs.proved_safe Abs.Proved_noop);
  (* Persistent: a demotion in a set that fits never costs anything —
     the victim preference it expresses is never consulted. *)
  let abs =
    abs_analyze
      [|
        mk ~bytes:32 ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
        mk ~bytes:32 ~hints:[| Basic_block.Demote l |] ~id:1 ~addr:(at 0 + 32)
          Basic_block.Halt;
      |]
  in
  checkb "demote in a fitting set" true
    (Abs.prove abs ~block:1 ~index:0 = Abs.Proved_persistent);
  (* Pressure: both conflicting lines (= ways) precede the only
     re-reference, mirroring the path-search safe-pressure scenario. *)
  let abs =
    abs_analyze
      [|
        mk
          ~hints:[| Basic_block.Invalidate (line_at 12) |]
          ~id:0 ~addr:(at 0) (Basic_block.Fallthrough 1);
        mk ~id:1 ~addr:(at 4) (Basic_block.Fallthrough 2);
        mk ~id:2 ~addr:(at 8) (Basic_block.Fallthrough 3);
        mk ~id:3 ~addr:(at 12) Basic_block.Halt;
      |]
  in
  checkb "evicted anyway" true (Abs.prove abs ~block:0 ~index:0 = Abs.Proved_pressure);
  (* An operand outside the text can never change cache contents. *)
  let abs =
    abs_analyze
      [|
        mk ~hints:[| Basic_block.Invalidate (line_at 4096) |] ~id:0 ~addr:(at 0)
          Basic_block.Halt;
      |]
  in
  checkb "outside footprint is a no-op" true
    (Abs.prove abs ~block:0 ~index:0 = Abs.Proved_noop)

let test_abs_leak_rule () =
  (* Block 0 touches [l] and invalidates it, then branches to block 1
     (on another set's line, looping on itself or leaving for block 2)
     or to block 2, which re-references [l].  Block 1 is outside [l]'s
     slice, so the slice joins block 0 straight to block 2; but the
     path that stays in block 1's loop forever never re-references
     [l], so no first event is guaranteed and the hint is not harmful. *)
  let l = line_at 0 in
  let abs =
    abs_analyze
      [|
        mk ~bytes:32
          ~hints:[| Basic_block.Invalidate l |]
          ~id:0 ~addr:(at 0)
          (Basic_block.Cond { taken = 1; fallthrough = 2 });
        mk ~id:1 ~addr:(at 1) (Basic_block.Cond { taken = 1; fallthrough = 2 });
        mk ~bytes:32 ~id:2 ~addr:(at 0 + 32) Basic_block.Halt;
      |]
  in
  checkb "loop outside the slice leaks" true
    (Abs.prove abs ~block:0 ~index:0 = Abs.Unproved)

(* Every hint site with its path-search classification and its abstract
   verdict over one shared analysis, paired the way [Lint] pairs them. *)
let classify_proved ~geometry ~entry blocks =
  let abs = Abs.analyze ~geometry ~entry blocks in
  List.map
    (fun ((s : Icheck.site), c) ->
      (s, c, Abs.prove abs ~block:s.Icheck.block ~index:s.Icheck.index))
    (Icheck.classify ~geometry ~entry blocks)

let test_lint_classifier_disagreement () =
  (* Reuse that flows only through the Return resumption: the path
     search (bare flow graph, Return is a sink) calls the hint dead,
     the abstract proofs (closed graph) prove it converts a guaranteed
     hit into a guaranteed miss.  The cross-check must fire as an
     error. *)
  let blocks =
    [|
      mk ~id:0 ~addr:(at 0) (Basic_block.Call { callee = 1; return_to = 2 });
      mk ~hints:[| Basic_block.Invalidate (line_at 0) |] ~id:1 ~addr:(at 1) Basic_block.Return;
      mk ~id:2 ~addr:(at 2) Basic_block.Halt;
    |]
  in
  (match classify_proved ~geometry:tiny_geometry ~entry:0 blocks with
  | [ (_, Icheck.Safe_dead, Abs.Proved_harmful) ] -> ()
  | [ (_, c, v) ] ->
    Alcotest.failf "expected safe_dead/proved_harmful, got %s/%s"
      (Icheck.classification_name c) (Abs.verdict_name v)
  | _ -> Alcotest.fail "expected exactly one hint site");
  checkb "pair is a disagreement" true
    (Icheck.disagreement Icheck.Safe_dead Abs.Proved_harmful);
  let s = Lint.check_blocks ~geometry:tiny_geometry ~entry:0 blocks in
  checkb "cross-check fired" true (has Finding.Classifier_disagreement s);
  checki "as an error" 2 (Lint.exit_code s);
  checki "counted" 1 s.Lint.proofs.Lint.disagreements;
  checki "harmful proof counted" 1 s.Lint.proofs.Lint.proved_harmful

let test_lint_proof_counters () =
  let s = Lint.check_blocks ~geometry:tiny_geometry ~entry:0 (harmful_blocks ~demote:false) in
  (* The path-search harmful verdict rests on a forward-slice witness
     the abstract domains cannot reproduce through the closure loop:
     unproved, and explicitly not a disagreement. *)
  checki "no disagreement" 0 s.Lint.proofs.Lint.disagreements;
  checki "unproved" 1 s.Lint.proofs.Lint.unproved;
  checki "none safe" 0 (Lint.proved_safe s.Lint.proofs);
  checkb "abstract summary attached" true (s.Lint.abstract <> None);
  (* The new sections render deterministically. *)
  let j1 = Json.to_string (Lint.to_json s) in
  let s2 = Lint.check_blocks ~geometry:tiny_geometry ~entry:0 (harmful_blocks ~demote:false) in
  let j2 = Json.to_string (Lint.to_json s2) in
  checkb "byte-deterministic" true (String.equal j1 j2);
  checkb "proofs section" true (contains j1 "\"proofs\"");
  checkb "abstract section" true (contains j1 "\"abstract\"")

(* ------------- qcheck: abstract facts vs concrete replay ------------- *)

(* Sprinkle deterministic hints over a generated program so the
   invalidate/demote transfer edges are exercised. *)
let with_random_hints seed program =
  let blocks = Program.blocks program in
  let n = Array.length blocks in
  let line_of i = List.hd (Basic_block.lines blocks.(i mod n)) in
  let hints =
    Array.init n (fun i ->
        if i = seed mod n then [ Basic_block.Invalidate (line_of (seed * 7)) ]
        else if i = ((seed * 3) + 1) mod n then [ Basic_block.Demote (line_of (seed * 13)) ]
        else [])
  in
  fst (Program.with_hints program ~hints)

(* Replay a concrete executor trace against the abstract facts.  The
   trace is a legal path of the closed graph (execution resumes at the
   dispatcher, which is the entry block), so every per-site claim must
   hold at every dynamic occurrence, from a cold cache. *)
let replay_agrees ~lru abs blocks trace ~geometry ~policy =
  let facts = Abs.facts abs in
  let cache = Cache.create ~geometry ~policy () in
  (* Must-hit facts assume install-on-miss; a bypassing policy (ship-sb)
     can legally miss on them.  Always-miss facts stay sound either way:
     bypassing only removes resident lines. *)
  let installs = not (Cache.may_bypass cache) in
  Array.for_all
    (fun b ->
      let fs = facts.(b) in
      let ok = ref true in
      List.iteri
        (fun index line ->
          let r = Cache.access cache (Access.demand ~line ~block:b) in
          if index < Array.length fs then begin
            let f = fs.(index) in
            if installs && f.Abs.must_hit && r <> Cache.Hit then ok := false;
            if installs && lru && f.Abs.must_hit_lru && r <> Cache.Hit then ok := false;
            if f.Abs.always_miss && r <> Cache.Miss then ok := false
          end)
        (Basic_block.lines blocks.(b));
      Array.iter
        (function
          | Basic_block.Invalidate l -> Cache.invalidate cache l
          | Basic_block.Demote l -> Cache.demote cache l)
        blocks.(b).Basic_block.hints;
      !ok)
    trace

let prop_abs_soundness =
  QCheck.Test.make ~count:8 ~name:"abstract facts sound in concrete replay (every policy)"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let w = W.Cfg_gen.generate (tiny_model seed) in
      let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:20_000 in
      let program = with_random_hints seed w.W.Cfg_gen.program in
      let blocks = Program.blocks program in
      List.for_all
        (fun geometry ->
          let abs = Abs.analyze ~geometry ~entry:(Program.entry program) blocks in
          List.for_all
            (fun (e : Registry.entry) ->
              replay_agrees
                ~lru:(String.equal e.Registry.name "lru")
                abs blocks trace ~geometry
                ~policy:(Registry.factory e.Registry.name))
            Registry.all)
        [ tiny_geometry; Geometry.l1i ])

let prop_abs_agreement =
  QCheck.Test.make ~count:8 ~name:"abstract never blesses a path-search harmful hint"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let program = with_random_hints seed (tiny_program seed) in
      List.for_all
        (fun (_, c, v) ->
          match c with
          | Icheck.Harmful _ -> not (Abs.proved_safe v)
          | _ -> true)
        (classify_proved ~geometry:tiny_geometry ~entry:(Program.entry program)
           (Program.blocks program)))

(* Hints over a generated program, drawn per block from the seed:
   invalidations of the block's own line or of any line of the text,
   the same invalidation twice, demotions, and mixes. *)
let with_dense_hints seed program =
  let blocks = Program.blocks program in
  let n = Array.length blocks in
  let rng = Random.State.make [| seed |] in
  let line_of v =
    let ls = Basic_block.lines blocks.(v) in
    List.nth ls (Random.State.int rng (List.length ls))
  in
  let any_line () = line_of (Random.State.int rng n) in
  let hints =
    Array.init n (fun v ->
        match Random.State.int rng 10 with
        | 0 -> [ Basic_block.Invalidate (any_line ()) ]
        | 1 -> [ Basic_block.Invalidate (line_of v) ]
        | 2 ->
          let l = any_line () in
          [ Basic_block.Invalidate l; Basic_block.Invalidate l ]
        | 3 -> [ Basic_block.Demote (any_line ()) ]
        | 4 -> [ Basic_block.Invalidate (any_line ()); Basic_block.Demote (line_of v) ]
        | _ -> [])
  in
  fst (Program.with_hints program ~hints)

let prop_abs_matches_reference =
  QCheck.Test.make ~count:200 ~name:"sliced facts and verdicts equal the dense reference"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let program = with_dense_hints seed (tiny_program seed) in
      let blocks = Program.blocks program in
      let entry = Program.entry program in
      List.iter
        (fun geometry ->
          let abs = Abs.analyze ~geometry ~entry blocks in
          let dense = Abs_cache_ref.analyze ~geometry ~entry blocks in
          let ways = geometry.Geometry.ways and sets = Geometry.sets geometry in
          if Abs.facts abs <> Abs_cache_ref.facts dense then
            QCheck.Test.fail_reportf "%d-way x %d sets: facts differ" ways sets;
          Array.iteri
            (fun block (b : Basic_block.t) ->
              Array.iteri
                (fun index _ ->
                  let v = Abs.prove abs ~block ~index in
                  let v' = Abs_cache_ref.prove dense ~block ~index in
                  if v <> v' then
                    QCheck.Test.fail_reportf "%d-way x %d sets: bb%d hint %d: %s, reference %s"
                      ways sets block index (Abs.verdict_name v) (Abs.verdict_name v'))
                b.Basic_block.hints)
            blocks)
        [
          tiny_geometry;
          Geometry.v ~size_bytes:(4 * 8 * Addr.line_size) ~ways:4;
          Geometry.l1i;
        ];
      true)

(* The classifier's per-line reachability tables against the dense
   reference it replaced, on the same dense-hint programs and the
   same three geometries as the abstract-cache property. *)
let prop_classify_matches_reference =
  QCheck.Test.make ~count:200 ~name:"classifications equal the dense reference"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let program = with_dense_hints seed (tiny_program seed) in
      let blocks = Program.blocks program in
      let entry = Program.entry program in
      List.iter
        (fun geometry ->
          let got = Icheck.classify ~geometry ~entry blocks in
          let want = Invalidation_check_ref.classify ~geometry ~entry blocks in
          if got <> want then
            QCheck.Test.fail_reportf "%d-way x %d sets: classifications differ"
              geometry.Geometry.ways (Geometry.sets geometry))
        [
          tiny_geometry;
          Geometry.v ~size_bytes:(4 * 8 * Addr.line_size) ~ways:4;
          Geometry.l1i;
        ];
      true)

(* Cue selection against the two-walk reference on random streams over
   a small block alphabet, so blocks repeat inside windows (the
   per-window dedupe), pairs recur across windows (support) and small
   counts over small execution counts tie on probability; scan and
   step limits small enough to cut windows short. *)
let prop_cue_matches_reference =
  let gen =
    QCheck.Gen.(
      let* len = int_range 1 120 in
      let* stream =
        array_repeat len
          (let* block = int_range 0 7 and* line = int_range 0 5 and* prefetch = int_range 0 5 in
           return
             (if prefetch = 0 then Access.prefetch ~line ~block
              else Access.demand ~line ~block))
      in
      let* windows =
        array_size (int_range 0 40)
          (let* victim = int_range 0 3 and* start = int_range 0 (len - 1) in
           let* stop = int_range start (len - 1) in
           return { Eviction_window.victim; start; stop })
      in
      let* exec_counts = array_repeat 8 (int_range 0 6) in
      let* scan_limit = int_range 1 8 and* step_limit = int_range 1 12 in
      let* min_support = int_range 1 3 in
      let* threshold = oneofl [ 0.0; 0.25; 0.5; 1.0 ] in
      return (stream, windows, exec_counts, scan_limit, step_limit, min_support, threshold))
  in
  QCheck.Test.make ~count:500 ~name:"cue decisions and drops equal the two-walk reference"
    (QCheck.make gen)
    (fun (stream, windows, exec_counts, scan_limit, step_limit, min_support, threshold) ->
      let stream = Ripple_cache.Access_stream.of_array stream in
      let got =
        Cue_block.analyze_report ~scan_limit ~step_limit ~min_support ~stream ~windows
          ~exec_counts ~threshold ()
      in
      let want =
        Cue_block_ref.analyze_report ~scan_limit ~step_limit ~min_support ~stream ~windows
          ~exec_counts ~threshold ()
      in
      got = want)

(* -------------- nine apps: static bounds bracket reality ------------- *)

let test_nine_apps_bounds_bracket () =
  List.iter
    (fun (m : W.App_model.t) ->
      let w = W.Cfg_gen.generate m in
      let program = w.W.Cfg_gen.program in
      let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:100_000 in
      (* Evaluate on the very trace the profile (and hence the bounds'
         exec counts) came from, demand fetches only, cold start: the
         static bracket must contain the simulated miss count. *)
      let outcome =
        Pipeline.run
          {
            Pipeline.Options.default with
            verify = true;
            prefetch = Pipeline.No_prefetch;
            pt_roundtrip = false;
            eval = Some (Pipeline.Eval.v ~trace ~policy:(Registry.factory "lru") ());
          }
          ~source:program (Pipeline.Trace trace)
      in
      let name = m.W.App_model.name in
      let s =
        match outcome.Pipeline.analysis.Pipeline.lint with
        | Some s -> s
        | None -> Alcotest.fail (name ^ ": missing lint summary")
      in
      checkb (name ^ ": no cross-check finding") false
        (has Finding.Classifier_disagreement s);
      let a =
        match s.Lint.abstract with
        | Some a -> a
        | None -> Alcotest.fail (name ^ ": missing abstract summary")
      in
      let b =
        match a.Abs.bounds with
        | Some b -> b
        | None -> Alcotest.fail (name ^ ": missing static bounds")
      in
      let r =
        match outcome.Pipeline.evaluation with
        | Some e -> e.Pipeline.result
        | None -> Alcotest.fail (name ^ ": missing evaluation")
      in
      let misses = r.Simulator.demand_misses in
      checkb
        (Printf.sprintf "%s: %d <= %d <= %d" name b.Abs.lower_misses misses
           b.Abs.upper_misses)
        true
        (b.Abs.lower_misses <= misses && misses <= b.Abs.upper_misses);
      checkb (name ^ ": mpki bracket") true
        (b.Abs.mpki_lower <= r.Simulator.mpki +. 1e-9
        && r.Simulator.mpki <= b.Abs.mpki_upper +. 1e-9))
    W.Apps.all

let suites =
  [
    ( "analysis.structural",
      [
        Alcotest.test_case "dangling edges" `Quick test_structural_dangling;
        Alcotest.test_case "entry and ids" `Quick test_structural_entry_and_ids;
        Alcotest.test_case "layout invariants" `Quick test_structural_layout;
        Alcotest.test_case "orphan is info" `Quick test_structural_orphan_is_info;
        Alcotest.test_case "errors gate hints" `Quick test_structural_gate_skips_hints;
      ] );
    ( "analysis.dominance",
      [
        Alcotest.test_case "diamond" `Quick test_dominance_diamond;
        Alcotest.test_case "loop and unreachable" `Quick test_dominance_loop_and_unreachable;
      ] );
    ( "analysis.classify",
      [
        Alcotest.test_case "harmful direct reuse" `Quick test_classify_harmful_direct;
        Alcotest.test_case "safe dead" `Quick test_classify_safe_dead;
        Alcotest.test_case "safe pressure" `Quick test_classify_safe_pressure;
        Alcotest.test_case "redundant" `Quick test_classify_redundant;
        Alcotest.test_case "reference defeats redundancy" `Quick
          test_classify_reference_defeats_redundancy;
        Alcotest.test_case "prunes at re-invalidation" `Quick
          test_classify_prunes_at_reinvalidation;
        Alcotest.test_case "pressure at a distance" `Quick test_classify_pressure_at_a_distance;
        Alcotest.test_case "re-hint on the path kills liveness" `Quick
          test_classify_rehint_kills_liveness;
        Alcotest.test_case "reference before own hint stays live" `Quick
          test_classify_reference_before_own_hint;
        QCheck_alcotest.to_alcotest prop_classify_matches_reference;
      ] );
    ( "analysis.lint",
      [
        Alcotest.test_case "harmful severity vs provenance" `Quick test_lint_harmful_severity;
        Alcotest.test_case "hint outside footprint" `Quick test_lint_outside_footprint;
        Alcotest.test_case "clean program" `Quick test_lint_clean_program;
        Alcotest.test_case "json shape" `Quick test_lint_json;
        Alcotest.test_case "nine apps, paper defaults: no errors" `Slow
          test_nine_apps_no_errors;
        Alcotest.test_case "nine apps at 300k: classify, hints, placements pinned" `Slow
          test_nine_apps_300k_pin;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_mutation_dangling; prop_mutation_overlap; prop_mutation_orphan ] );
    ( "analysis.satellites",
      [
        Alcotest.test_case "cue-block drop report" `Quick test_drop_report;
        Alcotest.test_case "drop report agrees with analyze" `Quick
          test_drop_report_agrees_with_analyze;
        Alcotest.test_case "injector placements" `Quick test_injector_placements;
        Alcotest.test_case "pipeline verify gate" `Quick test_pipeline_verify_gate;
        QCheck_alcotest.to_alcotest prop_cue_matches_reference;
      ] );
    ( "analysis.fixpoint",
      [
        Alcotest.test_case "straight line" `Quick test_fixpoint_straight_line;
        Alcotest.test_case "diamond join" `Quick test_fixpoint_diamond_join;
        Alcotest.test_case "loop saturates" `Quick test_fixpoint_loop_saturates;
      ] );
    ( "analysis.abs_cache",
      [
        Alcotest.test_case "must hit and always miss" `Quick
          test_abs_must_hit_and_always_miss;
        Alcotest.test_case "conflict vs fit" `Quick test_abs_conflict_vs_fit;
        Alcotest.test_case "hint verdicts" `Quick test_abs_verdicts;
        Alcotest.test_case "leak rule" `Quick test_abs_leak_rule;
        Alcotest.test_case "classifier disagreement" `Quick test_lint_classifier_disagreement;
        Alcotest.test_case "proof counters and json" `Quick test_lint_proof_counters;
        Alcotest.test_case "nine apps: bounds bracket simulation" `Slow
          test_nine_apps_bounds_bracket;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_abs_soundness; prop_abs_agreement; prop_abs_matches_reference ] );
  ]
