module Program = Ripple_isa.Program
module Pt = Ripple_trace.Pt
module Pipeline = Ripple_core.Pipeline
module Obs = Ripple_obs
module Json = Ripple_util.Json

type cells = {
  chunk_bytes : Obs.Metric.counter;
  decoded_blocks : Obs.Metric.counter;
  salvage : Obs.Metric.gauge;
  drift : Obs.Metric.gauge;
  ladder_level : Obs.Metric.gauge;
  ladder_transitions : Obs.Metric.counter;
  reemissions : Obs.Metric.counter;
  stream_spill_bytes : Obs.Metric.counter;  (** shared (unlabelled) family *)
}

type t = {
  name : string;
  source : Program.t;
  obs : Obs.Run.t;
  options : Pipeline.Options.t;
  reemit_every : int;
  rolling : Rolling.t;
  store : Snapshot.Store.t option;
  mutable pt : Pt.Session.t;
  mutable level : Pipeline.Degrade.level;
  mutable transitions : int;
  mutable emissions : int;
  mutable next_seq : int;  (** next protocol sequence number expected *)
  mutable last : Pipeline.outcome option;
  mutable since_emit : int;  (** fresh blocks since the last re-emission *)
  cells : cells;
}

let register_cells reg app =
  let lbl name = Obs.Metric.labelled name [ ("app", app) ] in
  let c name help = Obs.Registry.counter reg ~help (lbl name) in
  let g name help = Obs.Registry.gauge reg ~help (lbl name) in
  {
    chunk_bytes = c "ripple_serve_chunk_bytes" "PT bytes received over the wire";
    decoded_blocks = c "ripple_serve_decoded_blocks" "blocks decoded incrementally";
    salvage = g "ripple_serve_session_salvage" "merged salvage of the rolling profile";
    drift = g "ripple_serve_session_drift" "drift of the last re-emission";
    ladder_level = g "ripple_serve_ladder_level" "ladder rung: 0 full, 1 safe-only, 2 off";
    ladder_transitions = c "ripple_serve_ladder_transitions" "ladder level changes";
    reemissions = c "ripple_serve_reemissions" "hint re-emissions performed";
    stream_spill_bytes =
      Obs.Registry.counter reg ~help:"bytes written to stream spill files"
        "ripple_stream_spill_bytes";
  }

(* Build the in-memory session only; what (if anything) gets persisted
   at construction time is the caller's business — [create] and
   [restore] differ on exactly that. *)
let make ?store ~obs ~options ~window ~reemit_every ~name ~program () =
  let options = { options with Pipeline.Options.eval = None } in
  let backing = options.Pipeline.Options.backing in
  let reg = Obs.Run.registry obs in
  let cells = register_cells reg name in
  Obs.Metric.set cells.ladder_level 2.0;
  Obs.Metric.set
    (Obs.Registry.gauge reg ~help:"access-stream backing: 0 heap, 1 mmap"
       "ripple_stream_backing")
    (match backing with Ripple_util.Int_stream.Heap -> 0.0 | Ripple_util.Int_stream.Spill -> 1.0);
  {
    name;
    source = program;
    obs;
    options;
    reemit_every;
    rolling = Rolling.create ~backing ~window ();
    store;
    pt = Pt.Session.create program;
    level = Pipeline.Degrade.Hints_off;
    transitions = 0;
    emissions = 0;
    next_seq = 0;
    last = None;
    since_emit = 0;
    cells;
  }

let create ?store ~obs ~options ~window ~reemit_every ~name ~program () =
  let t = make ?store ~obs ~options ~window ~reemit_every ~name ~program () in
  (match store with
  | None -> ()
  | Some store ->
    (* A genuinely new session owns its journal: a stale one left by a
       prior incarnation (a snapshot that failed to decode, an app the
       recovery lookup could not resolve) would otherwise be appended
       after and replayed into this fresh session at the next crash. *)
    Snapshot.Store.journal_reset store ~app:name;
    (* Durable sessions snapshot at birth: a kill -9 before the first
       flush then still recovers (empty snapshot + journal replay) —
       recovery must never depend on having flushed at least once. *)
    Snapshot.Store.save store
      {
        Snapshot.app = name;
        level = 2;
        transitions = 0;
        emissions = 0;
        next_seq = 0;
        gens = [];
      });
  t

let name t = t.name
let level t = t.level
let transitions t = t.transitions
let emissions t = t.emissions
let next_seq t = t.next_seq
let last_outcome t = t.last

let program t =
  match t.last with Some oc -> oc.Pipeline.program | None -> t.source

(* The merged profile right now: closed generations plus the in-flight
   one.  The in-flight capture counts only what has already decoded
   (expected := decoded), so a mid-capture re-emission is not punished
   for the tail that simply has not arrived yet; truncation is judged
   at flush, when the header's advertised count comes due. *)
let profile_now t =
  let partial = (Pt.Session.result t.pt).Pt.trace in
  let trace = Array.append (Rolling.trace t.rolling) partial in
  let decoded = Rolling.blocks t.rolling + Array.length partial in
  let expected = Rolling.advertised t.rolling + Array.length partial in
  let errors = Rolling.errors t.rolling + Pt.Session.errors t.pt in
  let salvage =
    if expected > 0 then Float.of_int decoded /. Float.of_int expected
    else if (Rolling.generations t.rolling > 0 || Pt.Session.finished t.pt) && errors = 0
    then 1.0
    else 0.0
  in
  { Pipeline.trace; source = t.source; salvage; pt_errors = errors }

(* FNV-1a 64 over the durable profile content — what the chaos harness
   compares across an interrupted and an uninterrupted run. *)
let profile_fnv t =
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    for shift = 0 to 7 do
      let byte = (v lsr (8 * shift)) land 0xFF in
      h := Int64.logxor !h (Int64.of_int byte);
      h := Int64.mul !h 0x100000001b3L
    done
  in
  Array.iter mix (Rolling.trace t.rolling);
  mix (Rolling.advertised t.rolling);
  mix (Rolling.errors t.rolling);
  Printf.sprintf "%016Lx" !h

(* [count] is false only while rebuilding state during recovery: the
   emission then reconstructs the instrumented binary without claiming
   new work happened. *)
let emit ?(count = true) t =
  let profile = profile_now t in
  let oc = Pipeline.run ~obs:t.obs t.options ~source:t.source (Pipeline.Profile profile) in
  let degrade = oc.Pipeline.analysis.Pipeline.degrade in
  let level = degrade.Pipeline.Degrade.level in
  if level <> t.level && count then begin
    t.transitions <- t.transitions + 1;
    Obs.Metric.incr t.cells.ladder_transitions
  end;
  t.level <- level;
  t.last <- Some oc;
  if count then begin
    t.emissions <- t.emissions + 1;
    Obs.Metric.incr t.cells.reemissions
  end;
  t.since_emit <- 0;
  Obs.Metric.set t.cells.ladder_level (float_of_int (Pipeline.Degrade.code level));
  Obs.Metric.set t.cells.salvage profile.Pipeline.salvage;
  Obs.Metric.set t.cells.drift degrade.Pipeline.Degrade.drift

(* ---------------------------- persistence ---------------------------- *)

let snapshot_state t =
  {
    Snapshot.app = t.name;
    level = Pipeline.Degrade.code t.level;
    transitions = t.transitions;
    emissions = t.emissions;
    next_seq = t.next_seq;
    gens =
      List.map
        (fun (blocks, expected, errors) ->
          { Snapshot.g_blocks = blocks; g_expected = expected; g_errors = errors })
        (Rolling.dump t.rolling);
  }

let save t =
  match t.store with None -> () | Some store -> Snapshot.Store.save store (snapshot_state t)

(* --------------------------- sequenced ops --------------------------- *)

(* Feed the decoder and drive mid-capture re-emission; shared by the
   live path and journal replay (replay must reproduce exactly the
   state the live path built, re-emissions included). *)
let ingest t chunk =
  Obs.Metric.add t.cells.chunk_bytes (Bytes.length chunk);
  if not (Pt.Session.finished t.pt) then Pt.Session.feed t.pt chunk;
  let fresh = Array.length (Pt.Session.drain t.pt) in
  Obs.Metric.add t.cells.decoded_blocks fresh;
  t.since_emit <- t.since_emit + fresh;
  if t.reemit_every > 0 && t.since_emit >= t.reemit_every then emit t;
  Pt.Session.decoded t.pt

let apply_chunk t ~seq chunk =
  if seq < t.next_seq then `Duplicate (Pt.Session.decoded t.pt)
  else if seq > t.next_seq then `Gap t.next_seq
  else begin
    (* Write-ahead: the journal record lands (and is fsynced) before the
       decoder sees the bytes, so recovery never misses an applied
       chunk. *)
    (match t.store with
    | Some store -> Snapshot.Store.journal_append store ~app:t.name ~seq chunk
    | None -> ());
    t.next_seq <- seq + 1;
    `Applied (ingest t chunk)
  end

let do_flush t =
  Pt.Session.finish t.pt;
  let r = Pt.Session.result t.pt in
  Rolling.add t.rolling ~blocks:r.Pt.trace ~expected:r.Pt.expected
    ~errors:(List.length r.Pt.errors);
  (match Rolling.backing t.rolling with
  | Ripple_util.Int_stream.Heap -> ()
  | Ripple_util.Int_stream.Spill ->
    Obs.Metric.add t.cells.stream_spill_bytes (8 * Array.length r.Pt.trace));
  t.pt <- Pt.Session.create t.source;
  t.since_emit <- 0;
  emit t;
  (* The capture is folded into a generation: snapshot the new durable
     state, then drop the journal it supersedes. *)
  match t.store with
  | None -> ()
  | Some store ->
    Snapshot.Store.save store (snapshot_state t);
    Snapshot.Store.journal_reset store ~app:t.name

let apply_flush t ~seq =
  if seq < t.next_seq then `Duplicate
  else if seq > t.next_seq then `Gap t.next_seq
  else begin
    t.next_seq <- seq + 1;
    do_flush t;
    `Applied
  end

(* ----------------------------- recovery ------------------------------ *)

let restore ?store ~obs ~options ~window ~reemit_every ~program (state : Snapshot.state)
    journal =
  (* [make], not [create]: create's at-birth snapshot (and journal
     reset) would destroy exactly the durable state being recovered,
     and a second kill -9 before the next flush must recover again. *)
  let t = make ?store ~obs ~options ~window ~reemit_every ~name:state.Snapshot.app ~program () in
  List.iter
    (fun g ->
      Rolling.add t.rolling ~blocks:g.Snapshot.g_blocks ~expected:g.Snapshot.g_expected
        ~errors:g.Snapshot.g_errors)
    state.Snapshot.gens;
  t.level <- Pipeline.Degrade.of_code state.Snapshot.level;
  t.transitions <- state.Snapshot.transitions;
  t.emissions <- state.Snapshot.emissions;
  t.next_seq <- state.Snapshot.next_seq;
  Obs.Metric.set t.cells.ladder_level (float_of_int (Pipeline.Degrade.code t.level));
  (* Re-run the pipeline over the recovered window so the instrumented
     binary (and the salvage/drift gauges) exist again without a client
     replaying history.  Deterministic, so the level matches the stored
     one; the counters saw this emission before the crash already. *)
  if Rolling.generations t.rolling > 0 then emit ~count:false t;
  (* Re-persist the recovered state exactly as loaded — with the
     pre-replay [next_seq], so the journal records replayed below stay
     past the snapshot's horizon and survive for the next recovery. *)
  (match store with None -> () | Some store -> Snapshot.Store.save store state);
  (* Replay the in-flight capture journal through the live ingest path
     (without re-journaling: the records are already durable). *)
  List.iter
    (fun (seq, chunk) ->
      if seq >= t.next_seq then begin
        t.next_seq <- seq + 1;
        ignore (ingest t chunk : int)
      end)
    journal;
  t

let close t =
  Rolling.close t.rolling;
  match t.store with None -> () | Some store -> Snapshot.Store.close store

let status t =
  let drift, salvage =
    match t.last with
    | Some oc ->
      let d = oc.Pipeline.analysis.Pipeline.degrade in
      (d.Pipeline.Degrade.drift, d.Pipeline.Degrade.salvage)
    | None -> (0.0, 0.0)
  in
  Json.Obj
    [
      ("app", Json.String t.name);
      ("level", Json.String (Pipeline.Degrade.level_name t.level));
      ("generations", Json.Int (Rolling.generations t.rolling));
      ("window_blocks", Json.Int (Rolling.blocks t.rolling));
      ("inflight_blocks", Json.Int (Pt.Session.decoded t.pt));
      ("salvage", Json.Float salvage);
      ("drift", Json.Float drift);
      ("pt_errors", Json.Int (Rolling.errors t.rolling + Pt.Session.errors t.pt));
      ("transitions", Json.Int t.transitions);
      ("emissions", Json.Int t.emissions);
      ("next_seq", Json.Int t.next_seq);
      ("profile_fnv", Json.String (profile_fnv t));
      ( "hints",
        Json.Int
          (match t.last with
          | Some oc -> Program.static_hints oc.Pipeline.program
          | None -> 0) );
    ]
