module State = Policy.State

let rrpv_bits = 2
let distant = (1 lsl rrpv_bits) - 1 (* 3: the preferred victims *)
let long = distant - 1 (* 2: SRRIP's insertion position *)

let mix x =
  let x = x * 0x9E3779B1 in
  x lxor (x lsr 16)

(* Find a way at [distant], aging the whole set until one appears.
   Terminates because each aging round strictly increases the set
   maximum. *)
let victim rrpv ~ways ~set =
  let base = set * ways in
  let rec find () =
    let found = ref (-1) in
    (let way = ref 0 in
     while !found < 0 && !way < ways do
       if rrpv.(base + !way) = distant then found := !way;
       incr way
     done);
    if !found >= 0 then !found
    else begin
      for way = 0 to ways - 1 do
        rrpv.(base + way) <- min distant (rrpv.(base + way) + 1)
      done;
      find ()
    end
  in
  find ()

(* Reuse predictor: a table of 2-bit counters indexed by a hashed fill
   PC, plus per-slot bookkeeping of the fill's signature and whether the
   line was re-referenced.  A first re-reference raises the signature's
   counter, an eviction untouched lowers it. *)
module Predictor = struct
  let counter_max = 3

  type t = { counters : int array; fill_sig : int array; reused : bool array; sig_bits : int }

  let make st ~slots ~entries ~sig_bits =
    {
      counters = State.array st entries 1;
      fill_sig = State.array st slots 0;
      reused = State.array st slots false;
      sig_bits;
    }

  let signature t pc = mix pc land (Array.length t.counters - 1)
  let lookup t pc = t.counters.(signature t pc)
  let resident t ~slot = t.counters.(t.fill_sig.(slot))

  let fill t ~slot pc =
    t.fill_sig.(slot) <- signature t pc;
    t.reused.(slot) <- false

  let hit t ~slot =
    if not t.reused.(slot) then begin
      t.reused.(slot) <- true;
      let i = t.fill_sig.(slot) in
      t.counters.(i) <- min counter_max (t.counters.(i) + 1)
    end

  let evict t ~slot =
    if not t.reused.(slot) then begin
      let i = t.fill_sig.(slot) in
      t.counters.(i) <- max 0 (t.counters.(i) - 1)
    end

  (* Counters, plus a signature and a reuse bit per line. *)
  let storage_bits t = (Array.length t.counters * 2) + (Array.length t.fill_sig * (t.sig_bits + 1))
end

(* DRRIP's bimodal insertion: 1-in-32 fills insert long, the rest
   distant. *)
let bimodal_throttle = 32

let bimodal st =
  let count = State.ref st 0 in
  fun () ->
    incr count;
    if !count mod bimodal_throttle = 0 then long else distant

(* The kernel owns everything but the insertion rule: [insert] returns
   the RRPV of a fill, after the predictor (if any) has recorded the
   fill's signature.  The duel trains on every miss in [fill_decision],
   so bypassed misses still vote. *)
let kernel ~name ~sets ~ways st ?duel ?predictor ?bypass insert =
  let rrpv = State.array st (sets * ways) distant in
  Option.iter (fun d -> State.custom st (fun () -> Dueling.save d)) duel;
  let fill_decision =
    match (duel, bypass) with
    | None, None -> Policy.nop_fill_decision
    | _ ->
      fun ~set acc ->
        (match duel with Some d -> Dueling.train_miss d ~set | None -> ());
        (match bypass with Some b when b ~set acc -> `Bypass | _ -> `Install)
  in
  let on_hit ~set ~way _ =
    let slot = (set * ways) + way in
    (match predictor with Some p -> Predictor.hit p ~slot | None -> ());
    rrpv.(slot) <- 0
  in
  let on_fill ~set ~way acc =
    let slot = (set * ways) + way in
    (match predictor with Some p -> Predictor.fill p ~slot (Access.packed_pc acc) | None -> ());
    rrpv.(slot) <- insert ~set ~slot acc
  in
  let on_eviction =
    match predictor with
    | Some p -> fun ~set ~way ~line:_ -> Predictor.evict p ~slot:((set * ways) + way)
    | None -> Policy.nop_evict
  in
  let to_distant ~set ~way = rrpv.((set * ways) + way) <- distant in
  {
    Policy.name;
    on_hit;
    on_fill;
    fill_decision;
    may_bypass = Option.is_some bypass;
    victim = (fun ~set -> victim rrpv ~ways ~set);
    on_eviction;
    on_invalidate = to_distant;
    demote = to_distant;
    save = State.save st;
    storage_bits =
      (sets * ways * rrpv_bits)
      + Option.fold ~none:0 ~some:Predictor.storage_bits predictor
      + Option.fold ~none:0 ~some:Dueling.storage_bits duel;
    duel;
  }

let srrip ~sets ~ways = kernel ~name:"srrip" ~sets ~ways (State.create ()) (fun ~set:_ ~slot:_ _ -> long)

let drrip ~sets ~ways =
  let st = State.create () in
  let bimodal = bimodal st in
  (* Flavour A duels SRRIP insertion, flavour B bimodal insertion. *)
  let duel = Dueling.make ~sets in
  kernel ~name:"drrip" ~sets ~ways st ~duel (fun ~set ~slot:_ _ ->
      if Dueling.selects_b duel ~set then bimodal () else long)

let ship ~sets ~ways =
  let st = State.create () in
  let shct = Predictor.make st ~slots:(sets * ways) ~entries:4096 ~sig_bits:14 in
  (* Never-reused signatures insert eviction-first. *)
  kernel ~name:"ship" ~sets ~ways st ~predictor:shct (fun ~set:_ ~slot _ ->
      if Predictor.resident shct ~slot = 0 then distant else long)

let trrip ~sets ~ways =
  let st = State.create () in
  (* A 4096-entry temperature table; counters at 2 or above (of 0..3)
     mark hot code. *)
  let temp = Predictor.make st ~slots:(sets * ways) ~entries:4096 ~sig_bits:14 in
  (* Flavour A: plain SRRIP insertion.  Flavour B: temperature-guided
     insertion. *)
  let duel = Dueling.make ~sets in
  kernel ~name:"trrip" ~sets ~ways st ~duel ~predictor:temp (fun ~set ~slot _ ->
      if Dueling.selects_b duel ~set then begin
        let t = Predictor.resident temp ~slot in
        if t >= 2 then 1 (* hot code: near-MRU *)
        else if t = 0 then distant (* cold code: eviction-first *)
        else long
      end
      else long)

let ship_sb ~sets ~ways =
  let st = State.create () in
  let bimodal = bimodal st in
  let outcome = Predictor.make st ~slots:(sets * ways) ~entries:64 ~sig_bits:6 in
  (* Flavour A: SRRIP insertion.  Flavour B: bimodal insertion. *)
  let duel = Dueling.make ~sets in
  (* Per-set streaming detector: a stable non-zero stride between
     consecutive misses opens a window of [stream_window] misses during
     which dead-signature fills bypass the cache. *)
  let stream_window = 8 in
  let last_line = State.array st sets min_int in
  let stride = State.array st sets 0 in
  let confidence = State.array st sets 0 in
  let window = State.array st sets 0 in
  let stride_confident = 3 in
  let streaming ~set line =
    let d = if last_line.(set) = min_int then 0 else line - last_line.(set) in
    last_line.(set) <- line;
    if d <> 0 && d = stride.(set) then
      confidence.(set) <- min stride_confident (confidence.(set) + 1)
    else begin
      stride.(set) <- d;
      confidence.(set) <- 0
    end;
    if confidence.(set) >= stride_confident then window.(set) <- stream_window
    else if window.(set) > 0 then window.(set) <- window.(set) - 1;
    window.(set) > 0
  in
  let bypass ~set acc =
    streaming ~set (Access.packed_line acc) && Predictor.lookup outcome (Access.packed_pc acc) = 0
  in
  let p =
    kernel ~name:"ship-sb" ~sets ~ways st ~duel ~predictor:outcome ~bypass (fun ~set ~slot _ ->
        let base = if Dueling.selects_b duel ~set then bimodal () else long in
        (* The outcome counter overrides the duel at its extremes: dead
           signatures insert eviction-first, proven-reused ones near-MRU. *)
        let c = Predictor.resident outcome ~slot in
        if c = 0 then distant else if c = Predictor.counter_max then 0 else base)
  in
  (* Stream detector: last line, stride, confidence, window. *)
  { p with Policy.storage_bits = p.Policy.storage_bits + (sets * (16 + 8 + 2 + 4)) }
