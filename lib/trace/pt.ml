module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block

(* Classification of a transition for the encoder: what must be recorded
   so the decoder can follow it? *)
type record = Nothing | Tnt_bit of bool | Tip_target

let classify (b : Basic_block.t) ~next =
  match b.Basic_block.term with
  | Basic_block.Fallthrough expected | Basic_block.Jump expected
  | Basic_block.Call { callee = expected; return_to = _ } ->
    if next <> expected then invalid_arg "Pt.encode: broken direct edge";
    Nothing
  | Basic_block.Cond { taken; fallthrough } ->
    if next = taken then Tnt_bit true
    else if next = fallthrough then Tnt_bit false
    else invalid_arg "Pt.encode: broken conditional edge"
  | Basic_block.Indirect _ | Basic_block.Indirect_call _ | Basic_block.Return -> Tip_target
  | Basic_block.Halt -> invalid_arg "Pt.encode: execution continues past halt"

(* The stream opens with an LEB128 block count — the moral equivalent of
   PT's PSB metadata — so the decoder knows where the capture stops even
   when it stops in the middle of statically determined control flow. *)
let write_header buf n =
  let rec emit v =
    let byte = v land 0x7F and rest = v lsr 7 in
    if rest = 0 then Buffer.add_char buf (Char.chr byte)
    else begin
      Buffer.add_char buf (Char.chr (byte lor 0x80));
      emit rest
    end
  in
  emit n

(* Bounds-checked header read.  A corrupt stream can claim any block
   count; the cap keeps a garbage header from turning into an attempt to
   materialise a multi-gigabyte trace. *)
let max_expected = 1 lsl 24

let read_header_opt data =
  let len = Bytes.length data in
  let rec take pos shift acc =
    if pos >= len || shift > 56 then None
    else begin
      let byte = Char.code (Bytes.get data pos) in
      let acc = acc lor ((byte land 0x7F) lsl shift) in
      if byte land 0x80 <> 0 then take (pos + 1) (shift + 7) acc else Some (acc, pos + 1)
    end
  in
  match take 0 0 0 with
  | Some (n, _) when n < 0 || n > max_expected -> None
  | other -> other

let split_header data =
  match read_header_opt data with
  | Some (n, payload) -> (n, payload)
  | None -> invalid_arg "Pt.split_header: malformed header"

let encode program blocks =
  let buf = Buffer.create (Array.length blocks) in
  write_header buf (Array.length blocks);
  let pending = ref [] in
  let pending_n = ref 0 in
  let flush_tnt () =
    if !pending_n > 0 then begin
      Packet.write buf (Packet.Tnt (Array.of_list (List.rev !pending)));
      pending := [];
      pending_n := 0
    end
  in
  let push_tnt bit =
    pending := bit :: !pending;
    incr pending_n;
    if !pending_n = Packet.max_tnt_bits then flush_tnt ()
  in
  let n = Array.length blocks in
  if n > 0 then begin
    Packet.write buf (Packet.Tip (Program.block program blocks.(0)).Basic_block.addr);
    for i = 0 to n - 2 do
      let b = Program.block program blocks.(i) in
      match classify b ~next:blocks.(i + 1) with
      | Nothing -> ()
      | Tnt_bit bit -> push_tnt bit
      | Tip_target ->
        flush_tnt ();
        Packet.write buf (Packet.Tip (Program.block program blocks.(i + 1)).Basic_block.addr)
    done
  end;
  flush_tnt ();
  Packet.write buf Packet.End_of_trace;
  Buffer.to_bytes buf

type error_kind =
  | Bad_header
  | Bad_packet
  | Unexpected_packet
  | Bad_tip
  | Truncated
  | Past_halt

let error_kind_name = function
  | Bad_header -> "bad-header"
  | Bad_packet -> "bad-packet"
  | Unexpected_packet -> "unexpected-packet"
  | Bad_tip -> "bad-tip"
  | Truncated -> "truncated"
  | Past_halt -> "past-halt"

type decode_error = { pos : int; decoded : int; kind : error_kind }

type recovery = {
  trace : int array;
  expected : int;
  salvage : float;
  errors : decode_error list;
  resyncs : int;
}

let block_start_of_addr program addr =
  match Program.block_at program addr with
  | Some b when b.Basic_block.addr = addr -> Some b.Basic_block.id
  | Some _ | None -> None

(* ------------------------- resumable sessions ------------------------ *)

(* The recovering decoder as an explicit state machine, so it can park
   at a chunk boundary and resume when more bytes arrive.  The states
   are exactly the points where the one-shot decoder consumed input:

     Header      the LEB128 block count is not yet complete
     First       the opening TIP locating the initial block is due
     Cond id     at a conditional with no buffered TNT bits: a packet
                 is due
     Indirect id at an indirect transfer: a TIP is due
     Resync pos  scanning forward from [pos] for a TIP anchor after a
                 recorded fault
     Done        the advertised count was reached, or the stream ended

   Statically determined flow (fall-throughs, direct jumps and calls,
   conditionals whose TNT bits are already buffered) is walked eagerly
   and never parks.  The equivalence with one-shot decoding rests on
   one rule: a packet that runs past the currently available bytes is
   "incomplete" — the session parks — until [finish] declares end of
   stream, at which point it resolves exactly as the one-shot decoder's
   out-of-bounds read would (a [Bad_packet] fault, or a failed header /
   exhausted resync scan). *)
module Session = struct
  type state = Header | First | Cond of int | Indirect of int | Resync of int | Done

  type t = {
    program : Program.t;
    mutable data : bytes;  (** every byte fed so far (positions are absolute) *)
    mutable len : int;
    mutable pos : int;  (** packet cursor *)
    mutable tnt : bool array;  (** buffered TNT bits of the current packet *)
    mutable tnt_pos : int;
    mutable n : int;  (** advertised block count (valid past Header) *)
    mutable state : state;
    mutable blocks : int array;
    mutable count : int;
    mutable drained : int;
    mutable errors_rev : decode_error list;
    mutable n_errors : int;
    mutable resyncs : int;
    mutable eof : bool;
  }

  let create program =
    {
      program;
      data = Bytes.create 4096;
      len = 0;
      pos = 0;
      tnt = [||];
      tnt_pos = 0;
      n = 0;
      state = Header;
      blocks = Array.make 256 0;
      count = 0;
      drained = 0;
      errors_rev = [];
      n_errors = 0;
      resyncs = 0;
      eof = false;
    }

  let record t pos kind =
    t.errors_rev <- { pos; decoded = t.count; kind } :: t.errors_rev;
    t.n_errors <- t.n_errors + 1

  let push t id =
    if t.count = Array.length t.blocks then begin
      let grown = Array.make (2 * t.count) 0 in
      Array.blit t.blocks 0 grown 0 t.count;
      t.blocks <- grown
    end;
    t.blocks.(t.count) <- id;
    t.count <- t.count + 1

  (* Bounds-checked packet read against the bytes fed so far.  The
     distinction the one-shot decoder never needed: [`Incomplete] means
     the packet may still be completed by a future chunk, [`Malformed]
     means no amount of further input can repair it (mirroring the
     [Invalid_argument] raises of {!Packet.read} on in-range bytes). *)
  let read_packet t pos =
    if pos >= t.len then `Incomplete
    else begin
      let byte = Char.code (Bytes.get t.data pos) in
      let tag = byte lsr 6 in
      if tag = 0b00 then begin
        let payload = byte land 0x3F in
        if payload <= 1 then `Malformed
        else begin
          let stop = ref 5 in
          while payload land (1 lsl !stop) = 0 do
            decr stop
          done;
          `Packet (Packet.Tnt (Array.init !stop (fun i -> payload land (1 lsl i) <> 0)), pos + 1)
        end
      end
      else if tag = 0b01 then begin
        let rec take pos shift acc =
          if pos >= t.len then `Incomplete
          else begin
            let byte = Char.code (Bytes.get t.data pos) in
            let acc = acc lor ((byte land 0x7F) lsl shift) in
            if byte land 0x80 <> 0 then take (pos + 1) (shift + 7) acc
            else `Packet (Packet.Tip acc, pos + 1)
          end
        in
        take (pos + 1) 0 0
      end
      else if tag = 0b10 then `Packet (Packet.End_of_trace, pos + 1)
      else `Malformed
    end

  (* Incremental header read: [`Header] when complete, [`Incomplete]
     while the LEB128 still wants bytes, [`Malformed] on overflow or an
     absurd count — the cases [read_header_opt] folds into [None]. *)
  let read_header t =
    let rec take pos shift acc =
      if shift > 56 then `Malformed
      else if pos >= t.len then `Incomplete
      else begin
        let byte = Char.code (Bytes.get t.data pos) in
        let acc = acc lor ((byte land 0x7F) lsl shift) in
        if byte land 0x80 <> 0 then take (pos + 1) (shift + 7) acc
        else if acc < 0 || acc > max_expected then `Malformed
        else `Header (acc, pos + 1)
      end
    in
    take 0 0 0

  (* Drive the machine as far as the available bytes allow.  Each
     iteration either consumes input, advances the resync scan, or
     parks (returns).  [eof] converts every [`Incomplete] into the
     one-shot decoder's terminal behaviour. *)
  let rec advance t =
    match t.state with
    | Done -> ()
    | Header -> begin
      match read_header t with
      | `Header (n, start) ->
        t.n <- n;
        t.pos <- start;
        t.state <- (if n = 0 then Done else First);
        advance t
      | `Incomplete when not t.eof -> ()
      | `Incomplete | `Malformed ->
        record t 0 Bad_header;
        t.state <- Done
    end
    | First -> expect_tip t ~first:true t.pos
    | Indirect _ -> expect_tip t ~first:false t.pos
    | Cond id -> begin
      let b = Program.block t.program id in
      let taken, fallthrough =
        match b.Basic_block.term with
        | Basic_block.Cond { taken; fallthrough } -> (taken, fallthrough)
        | _ -> assert false
      in
      let pre = t.pos in
      match read_packet t pre with
      | `Packet (Packet.Tnt bits, next) ->
        t.pos <- next;
        t.tnt <- bits;
        t.tnt_pos <- 1;
        run t (if bits.(0) then taken else fallthrough)
      | `Packet (Packet.Tip _, _) ->
        (* A TIP where bits were due is itself a candidate restart
           point, so rescan from [pre] rather than past it. *)
        record t pre Unexpected_packet;
        t.state <- Resync pre;
        advance t
      | `Packet (Packet.End_of_trace, _) ->
        record t pre Truncated;
        t.state <- Done
      | `Incomplete when not t.eof -> ()
      | `Incomplete | `Malformed ->
        record t pre Bad_packet;
        t.state <- Resync (pre + 1);
        advance t
    end
    | Resync pos ->
      if pos >= t.len then begin
        if t.eof then t.state <- Done else t.state <- Resync pos
      end
      else if Char.code (Bytes.get t.data pos) <> Packet.tip_tag_byte then begin
        t.state <- Resync (pos + 1);
        advance t
      end
      else begin
        match read_packet t pos with
        | `Packet (Packet.Tip addr, next) -> begin
          match block_start_of_addr t.program addr with
          | Some id ->
            t.pos <- next;
            t.tnt <- [||];
            t.tnt_pos <- 0;
            t.resyncs <- t.resyncs + 1;
            run t id
          | None ->
            t.state <- Resync (pos + 1);
            advance t
        end
        | `Incomplete when not t.eof -> t.state <- Resync pos
        | `Incomplete | `Malformed | `Packet _ ->
          t.state <- Resync (pos + 1);
          advance t
      end

  (* A TIP is due: the opening packet, or an indirect transfer's target. *)
  and expect_tip t ~first pre =
    match read_packet t pre with
    | `Packet (Packet.Tip addr, next) -> begin
      match block_start_of_addr t.program addr with
      | Some id ->
        t.pos <- next;
        run t id
      | None ->
        record t pre Bad_tip;
        t.state <- Resync next;
        advance t
    end
    | `Packet (Packet.Tnt _, next) ->
      record t pre Unexpected_packet;
      t.state <- Resync next;
      advance t
    | `Packet (Packet.End_of_trace, _) ->
      record t pre Truncated;
      t.state <- Done
    | `Incomplete when not t.eof -> t.state <- (if first then First else t.state)
    | `Incomplete | `Malformed ->
      record t pre Bad_packet;
      t.state <- Resync (pre + 1);
      advance t

  (* Append a block and walk statically determined flow until the next
     point that needs a packet (or the advertised count is reached). *)
  and run t id =
    push t id;
    if t.count >= t.n then t.state <- Done
    else begin
      let b = Program.block t.program id in
      match b.Basic_block.term with
      | Basic_block.Fallthrough next | Basic_block.Jump next -> run t next
      | Basic_block.Call { callee; return_to = _ } -> run t callee
      | Basic_block.Cond { taken; fallthrough } ->
        if t.tnt_pos < Array.length t.tnt then begin
          let bit = t.tnt.(t.tnt_pos) in
          t.tnt_pos <- t.tnt_pos + 1;
          run t (if bit then taken else fallthrough)
        end
        else begin
          t.state <- Cond id;
          advance t
        end
      | Basic_block.Indirect _ | Basic_block.Indirect_call _ | Basic_block.Return ->
        if t.tnt_pos < Array.length t.tnt then begin
          (* Leftover conditional bits at an indirect transfer: the
             pending packet was garbage.  Drop the bits and rescan. *)
          record t t.pos Unexpected_packet;
          t.tnt <- [||];
          t.tnt_pos <- 0;
          t.state <- Resync t.pos;
          advance t
        end
        else begin
          t.state <- Indirect id;
          advance t
        end
      | Basic_block.Halt ->
        record t t.pos Past_halt;
        t.state <- Resync t.pos;
        advance t
    end

  let feed t chunk =
    if t.eof then invalid_arg "Pt.Session.feed: session is finished";
    let n = Bytes.length chunk in
    if n > 0 then begin
      if t.len + n > Bytes.length t.data then begin
        let cap = ref (max 4096 (2 * Bytes.length t.data)) in
        while t.len + n > !cap do
          cap := 2 * !cap
        done;
        let grown = Bytes.create !cap in
        Bytes.blit t.data 0 grown 0 t.len;
        t.data <- grown
      end;
      Bytes.blit chunk 0 t.data t.len n;
      t.len <- t.len + n
    end;
    advance t

  let finish t =
    if not t.eof then begin
      t.eof <- true;
      advance t
    end

  let drain t =
    let fresh = Array.sub t.blocks t.drained (t.count - t.drained) in
    t.drained <- t.count;
    fresh

  let decoded t = t.count
  let expected t = t.n
  let errors t = t.n_errors
  let resyncs t = t.resyncs

  let salvage t =
    match t.state with
    | Header -> 0.0
    | _ ->
      if t.n = 0 then if t.n_errors = 0 then 1.0 else 0.0
      else Float.of_int t.count /. Float.of_int t.n

  let finished t = t.state = Done

  let result t =
    {
      trace = Array.sub t.blocks 0 t.count;
      expected = t.n;
      salvage = salvage t;
      errors = List.rev t.errors_rev;
      resyncs = t.resyncs;
    }
end

let decode_result program data =
  let s = Session.create program in
  Session.feed s data;
  Session.finish s;
  Session.result s

let decode program data =
  let r = decode_result program data in
  match r.errors with
  | [] -> r.trace
  | { pos; kind; decoded = _ } :: _ ->
    invalid_arg (Printf.sprintf "Pt.decode: %s at byte %d" (error_kind_name kind) pos)

let compression_ratio program blocks =
  if Array.length blocks = 0 then 0.0
  else begin
    let encoded = encode program blocks in
    Float.of_int (Bytes.length encoded) /. Float.of_int (Array.length blocks)
  end
