(* Property tests for the packed access-stream representation: the
   packing round-trips, the chunked stream is observationally equal to a
   materialized array, cursors replay identically after a rewind, and —
   the load-bearing property — oracle results computed over the
   streaming path match the materialized path exactly. *)

module Access = Ripple_cache.Access
module Access_stream = Ripple_cache.Access_stream
module Belady = Ripple_cache.Belady
module Geometry = Ripple_cache.Geometry
module Simulator = Ripple_cpu.Simulator
module Lru = Ripple_cache.Lru
module Pipeline = Ripple_core.Pipeline
module W = Ripple_workloads

(* Accesses over a deliberately small line space so random streams have
   reuse (hits, evictions, next-use structure), not just cold misses. *)
let arb_access =
  QCheck.map
    (fun (line, block, pf) ->
      if pf then Access.prefetch ~line ~block else Access.demand ~line ~block)
    QCheck.(triple (int_range 0 512) (int_range (-1) 300) bool)

let arb_accesses = QCheck.(list_of_size (Gen.int_range 0 2000) arb_access)

let prop_pack_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pack/unpack round-trips" arb_access (fun a ->
      Access.unpack (Access.pack a) = a)

let prop_pack_bounds =
  (* The extremes of the documented ranges survive; line and kind are
     recoverable independently of block. *)
  QCheck.Test.make ~count:200 ~name:"packed accessors agree with record fields"
    arb_access (fun a ->
      let p = Access.pack a in
      Access.packed_line p = a.Access.line
      && Access.packed_block p = a.Access.block
      && Access.packed_pc p = a.Access.pc
      && Access.packed_is_demand p = Access.is_demand a
      && Access.packed_is_prefetch p = Access.is_prefetch a)

let prop_stream_materializes =
  QCheck.Test.make ~count:100 ~name:"of_list/to_array round-trips" arb_accesses
    (fun accs ->
      let stream = Access_stream.of_list accs in
      Access_stream.length stream = List.length accs
      && Array.to_list (Access_stream.to_array stream) = accs)

let prop_stream_iteration_orders =
  (* get, iter, iteri, fold_left and iteri_rev all observe the same
     sequence, across chunk boundaries. *)
  QCheck.Test.make ~count:60 ~name:"iteration orders agree" arb_accesses (fun accs ->
      let stream = Access_stream.of_list accs in
      let n = Access_stream.length stream in
      let by_get = Array.init n (Access_stream.get stream) in
      let by_iter = ref [] in
      Access_stream.iter (fun p -> by_iter := p :: !by_iter) stream;
      let by_rev = ref [] in
      Access_stream.iteri_rev (fun i p -> by_rev := (i, p) :: !by_rev) stream;
      let folded = Access_stream.fold_left (fun acc p -> p :: acc) [] stream in
      Array.to_list by_get = List.rev !by_iter
      && Array.to_list by_get = List.rev folded
      && !by_rev = List.mapi (fun i p -> (i, p)) (Array.to_list by_get))

let prop_cursor_rewind =
  QCheck.Test.make ~count:60 ~name:"cursor rewind replays identically" arb_accesses
    (fun accs ->
      let stream = Access_stream.of_list accs in
      let cursor = Access_stream.Cursor.create stream in
      let drain () =
        let out = ref [] in
        while Access_stream.Cursor.has_next cursor do
          out := Access_stream.Cursor.next cursor :: !out
        done;
        List.rev !out
      in
      let first = drain () in
      Access_stream.Cursor.rewind cursor;
      let second = drain () in
      first = second
      && List.length first = Access_stream.length stream
      && Access_stream.Cursor.pos cursor = Access_stream.length stream)

let prop_builder_chunking =
  (* A stream built incrementally equals one built in bulk, across sizes
     that straddle the chunk boundary. *)
  QCheck.Test.make ~count:20 ~name:"builder equals bulk construction around chunk edges"
    QCheck.(int_range 0 3)
    (fun delta ->
      let n = Access_stream.chunk_entries + delta - 2 in
      let accs = List.init n (fun i -> Access.demand ~line:(i land 1023) ~block:(-1)) in
      let b = Access_stream.Builder.create () in
      List.iter (Access_stream.Builder.add_access b) accs;
      let incremental = Access_stream.Builder.finish b in
      let bulk = Access_stream.of_list accs in
      Access_stream.length incremental = n
      && Access_stream.to_array incremental = Access_stream.to_array bulk)

(* ----------------- heap vs mmap spill backing ----------------------- *)

let tiny = Geometry.v ~size_bytes:(4 * 2 * 64) ~ways:2
let belady_equal (a : Belady.result) (b : Belady.result) = a = b

module Int_stream = Ripple_util.Int_stream

let spill_backing = Access_stream.Spill

let prop_spill_backing_unobservable =
  (* Every accessor observes the identical sequence whether the words
     live in heap chunks or in an mmap-backed spill file. *)
  QCheck.Test.make ~count:60 ~name:"mmap backing is unobservable" arb_accesses
    (fun accs ->
      let heap = Access_stream.of_list accs in
      let spill = Access_stream.of_list ~backing:spill_backing accs in
      let n = Access_stream.length heap in
      let same_forward =
        Access_stream.length spill = n
        && Array.init n (Access_stream.get heap) = Array.init n (Access_stream.get spill)
        && Access_stream.to_array heap = Access_stream.to_array spill
      in
      let rev_h = ref [] and rev_s = ref [] in
      Access_stream.iteri_rev (fun i p -> rev_h := (i, p) :: !rev_h) heap;
      Access_stream.iteri_rev (fun i p -> rev_s := (i, p) :: !rev_s) spill;
      let spilled = n = 0 || Access_stream.is_spill spill in
      Access_stream.close spill;
      same_forward && spilled && !rev_h = !rev_s)

let prop_spill_chunk_edges =
  (* Write-through buffering around the chunk boundary: spill streams
     whose lengths straddle the Builder's flush size equal their heap
     twins entry for entry. *)
  QCheck.Test.make ~count:8 ~name:"spill builder equals heap around chunk edges"
    QCheck.(int_range 0 4)
    (fun delta ->
      let n = Access_stream.chunk_entries + delta - 2 in
      let accs = List.init n (fun i -> Access.demand ~line:(i land 1023) ~block:(-1)) in
      let heap = Access_stream.of_list accs in
      let spill = Access_stream.of_list ~backing:spill_backing accs in
      let equal =
        Access_stream.length spill = n
        && Access_stream.to_array spill = Access_stream.to_array heap
      in
      Access_stream.close spill;
      equal)

let prop_belady_backing_equivalence =
  (* The oracle is backing-blind: identical result records (counters and
     the full eviction log) over heap and spill streams, in both modes. *)
  QCheck.Test.make ~count:20 ~name:"belady: heap backing = mmap backing" arb_accesses
    (fun accs ->
      let heap = Access_stream.of_list accs in
      let spill = Access_stream.of_list ~backing:spill_backing accs in
      let equal =
        belady_equal
          (Belady.simulate tiny ~mode:Belady.Min heap)
          (Belady.simulate tiny ~mode:Belady.Min spill)
        && belady_equal
             (Belady.simulate tiny ~mode:Belady.Demand_min heap)
             (Belady.simulate tiny ~mode:Belady.Demand_min spill)
      in
      Access_stream.close spill;
      equal)

let test_spill_lifecycle () =
  (* Spill files are registered while live, unlinked exactly once by
     Cursor.close / close, and reads survive the unlink. *)
  let accs = List.init 1000 (fun i -> Access.demand ~line:(i land 63) ~block:(-1)) in
  let s = Access_stream.of_list ~backing:spill_backing accs in
  let path =
    match Int_stream.spill_path (Access_stream.raw s) with
    | Some p -> p
    | None -> Alcotest.fail "spill stream has no backing file"
  in
  Alcotest.(check bool) "file exists while live" true (Sys.file_exists path);
  Alcotest.(check bool) "registry lists it" true (List.mem path (Int_stream.Spill.live ()));
  let cursor = Access_stream.Cursor.create s in
  Access_stream.Cursor.close cursor;
  Alcotest.(check bool) "file unlinked on cursor close" false (Sys.file_exists path);
  Alcotest.(check bool) "registry dropped it" false
    (List.mem path (Int_stream.Spill.live ()));
  Access_stream.close s;
  (* Reads stay valid after the unlink: the mapping outlives the name. *)
  Alcotest.(check int) "reads survive unlink" (List.length accs) (Access_stream.length s);
  Alcotest.(check bool) "contents survive unlink" true
    (Access_stream.to_array s = Array.of_list accs)

(* A stream dropped without [close] is unlinked by the GC finaliser,
   which hides the leak from [Spill.live]; [Spill.finalised] counts it,
   and a closed stream is never counted. *)
let test_spill_finaliser_counted () =
  let mk () =
    Access_stream.of_list ~backing:spill_backing
      (List.init 100 (fun i -> Access.demand ~line:i ~block:(-1)))
  in
  Gc.full_major ();
  let before = Int_stream.Spill.finalised () in
  let closed = mk () in
  Access_stream.close closed;
  ignore (Sys.opaque_identity (mk ()));
  Gc.full_major ();
  Alcotest.(check (list string)) "nothing left linked" [] (Int_stream.Spill.live ());
  Alcotest.(check int) "only the dropped stream is counted" (before + 1)
    (Int_stream.Spill.finalised ())

let test_spill_sweep () =
  (* The failure-path hook unlinks every still-registered spill file. *)
  let mk () =
    Access_stream.of_list ~backing:spill_backing
      (List.init 100 (fun i -> Access.demand ~line:i ~block:(-1)))
  in
  let a = mk () and b = mk () in
  let live = Int_stream.Spill.live () in
  Alcotest.(check bool) "at least two live spill files" true (List.length live >= 2);
  let swept = Int_stream.Spill.sweep () in
  Alcotest.(check bool) "sweep removed them" true (swept >= 2);
  Alcotest.(check (list string)) "registry empty" [] (Int_stream.Spill.live ());
  List.iter
    (fun p -> Alcotest.(check bool) ("gone: " ^ p) false (Sys.file_exists p))
    live;
  (* Idempotent: closing after a sweep is a no-op. *)
  Access_stream.close a;
  Access_stream.close b

let prop_scratch_backing_equivalence =
  (* Read-write scratch tables behave like int arrays on both backings. *)
  QCheck.Test.make ~count:40 ~name:"scratch: heap = mmap"
    QCheck.(pair (int_range 1 5000) (list_of_size (Gen.int_range 0 200) (pair small_nat int)))
    (fun (n, writes) ->
      let heap = Int_stream.Scratch.make n (-1) in
      let spill = Int_stream.Scratch.make ~backing:Int_stream.Spill n (-1) in
      List.iter
        (fun (i, x) ->
          let i = i mod n in
          Int_stream.Scratch.set heap i x;
          Int_stream.Scratch.set spill i x)
        writes;
      let equal =
        Int_stream.Scratch.length spill = n
        && Array.init n (Int_stream.Scratch.get heap)
           = Array.init n (Int_stream.Scratch.get spill)
      in
      Int_stream.Scratch.close heap;
      Int_stream.Scratch.close spill;
      equal)

(* ----------------- streaming vs materialized oracle ----------------- *)

let prop_belady_stream_equivalence =
  (* Belady over the chunked stream vs over a stream rebuilt from the
     materialized boxed array: identical result records (counters and
     the full eviction log), in both modes. *)
  QCheck.Test.make ~count:40 ~name:"belady: streaming path = materialized path"
    arb_accesses (fun accs ->
      let streaming = Access_stream.of_list accs in
      let materialized = Access_stream.of_array (Access_stream.to_array streaming) in
      belady_equal
        (Belady.simulate tiny ~mode:Belady.Min streaming)
        (Belady.simulate tiny ~mode:Belady.Min materialized)
      && belady_equal
           (Belady.simulate tiny ~mode:Belady.Demand_min streaming)
           (Belady.simulate tiny ~mode:Belady.Demand_min materialized))

let prop_oracle_recorded_stream_equivalence =
  (* The end-to-end streaming contract: [Simulator.oracle] fed a
     pre-recorded packed stream must equal the oracle left to record its
     own — same Simulator.result, workload by workload. *)
  QCheck.Test.make ~count:4 ~name:"oracle: cached stream = fresh recording"
    QCheck.(int_range 1 500)
    (fun seed ->
      let w = W.Cfg_gen.generate { W.Apps.kafka with W.App_model.seed } in
      let program = w.W.Cfg_gen.program in
      let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:40_000 in
      let prefetcher = Simulator.prefetcher_fdip in
      let stream = Simulator.record_stream_indexed ~program ~trace ~prefetcher () in
      let with_stream =
        Simulator.oracle ~warmup:1_000 ~stream ~mode:Belady.Demand_min ~program ~trace
          ~prefetcher ()
      in
      let fresh =
        Simulator.oracle ~warmup:1_000 ~mode:Belady.Demand_min ~program ~trace ~prefetcher
          ()
      in
      with_stream = fresh)

let suites =
  [
    ( "stream",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_pack_roundtrip;
          prop_pack_bounds;
          prop_stream_materializes;
          prop_stream_iteration_orders;
          prop_cursor_rewind;
          prop_builder_chunking;
          prop_belady_stream_equivalence;
          prop_oracle_recorded_stream_equivalence;
        ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_spill_backing_unobservable;
            prop_spill_chunk_edges;
            prop_belady_backing_equivalence;
            prop_scratch_backing_equivalence;
          ]
      @ [
          Alcotest.test_case "spill lifecycle (close/unlink)" `Quick test_spill_lifecycle;
          Alcotest.test_case "spill sweep (failure-path cleanup)" `Quick test_spill_sweep;
          Alcotest.test_case "spill finaliser unlinks are counted" `Quick
            test_spill_finaliser_counted;
        ] );
  ]
