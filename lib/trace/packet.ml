type t = Tnt of bool array | Tip of Ripple_isa.Addr.t | End_of_trace

(* Two tag bits leave a 6-bit field: up to 5 payload bits plus the stop
   bit delimiting them. *)
let max_tnt_bits = 5
let tag_tnt = 0b00
let tag_tip = 0b01
let tag_end = 0b10

(* A TIP packet always opens with exactly this byte (the tag in the top
   two bits, the low six clear) — the anchor the recovering decoder
   scans for when it resynchronizes after corruption. *)
let tip_tag_byte = tag_tip lsl 6

(* TNT byte layout: [tag:2][payload+stop:6].  The payload holds the bits
   oldest-first from the least-significant end, followed by a 1 stop bit;
   e.g. bits [T; NT] encode as tag | 0b100_01 pattern below. *)
let write buf = function
  | Tnt bits ->
    let n = Array.length bits in
    assert (n >= 1 && n <= max_tnt_bits);
    let payload = ref (1 lsl n) (* stop bit *) in
    Array.iteri (fun i b -> if b then payload := !payload lor (1 lsl i)) bits;
    Buffer.add_char buf (Char.chr ((tag_tnt lsl 6) lor !payload))
  | Tip addr ->
    Buffer.add_char buf (Char.chr (tag_tip lsl 6));
    (* LEB128 *)
    let rec emit v =
      let byte = v land 0x7F and rest = v lsr 7 in
      if rest = 0 then Buffer.add_char buf (Char.chr byte)
      else begin
        Buffer.add_char buf (Char.chr (byte lor 0x80));
        emit rest
      end
    in
    assert (addr >= 0);
    emit addr
  | End_of_trace -> Buffer.add_char buf (Char.chr (tag_end lsl 6))

let read bytes ~pos =
  let byte = Char.code (Bytes.get bytes pos) in
  let tag = byte lsr 6 in
  if tag = tag_tnt then begin
    let payload = byte land 0x3F in
    (* 0 has no stop bit; 1 is a stop bit with no payload bits.  The
       encoder emits neither, so both are corruption. *)
    if payload <= 1 then invalid_arg "Packet.read: empty TNT";
    (* Position of the stop bit = highest set bit. *)
    let stop = ref 5 in
    while payload land (1 lsl !stop) = 0 do
      decr stop
    done;
    let bits = Array.init !stop (fun i -> payload land (1 lsl i) <> 0) in
    (Tnt bits, pos + 1)
  end
  else if tag = tag_tip then begin
    let rec take pos shift acc =
      let byte = Char.code (Bytes.get bytes pos) in
      let acc = acc lor ((byte land 0x7F) lsl shift) in
      if byte land 0x80 <> 0 then take (pos + 1) (shift + 7) acc else (acc, pos + 1)
    in
    let addr, next = take (pos + 1) 0 0 in
    (Tip addr, next)
  end
  else if tag = tag_end then (End_of_trace, pos + 1)
  else invalid_arg "Packet.read: bad tag"
