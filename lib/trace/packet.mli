(** Processor-trace packets, in the spirit of Intel PT (§III-A).

    Hardware control-flow tracing only records what cannot be derived
    from the static program: one taken/not-taken bit per conditional
    branch (batched into TNT packets of up to six bits) and the full
    target address of each taken indirect transfer (TIP packets).
    Everything else — fall-throughs, direct jumps, direct calls — is
    reconstructed by the decoder walking the program image, which is why
    PT's runtime overhead is so low. *)

type t =
  | Tnt of bool array  (** 1–5 conditional outcomes, oldest first *)
  | Tip of Ripple_isa.Addr.t  (** target of an indirect transfer *)
  | End_of_trace

val max_tnt_bits : int
(** 5: two tag bits leave six payload bits, one of which is the stop bit
    (Intel's short-TNT packet fits 6 because its tag is a single bit). *)

val tip_tag_byte : int
(** The first byte of every TIP packet (tag bits only, payload follows
    as LEB128).  Recovering decoders scan for this byte to find the next
    resynchronization point in a corrupt stream, the role PSB packets
    play for real PT decoders. *)

val write : Buffer.t -> t -> unit
(** Serialises one packet.  TNT packets use one byte (two tag bits, a
    stop bit delimiting up to six payload bits); TIP packets use a tag
    byte plus an LEB128 address. *)

val read : bytes -> pos:int -> t * int
(** Deserialises the packet at [pos], returning it and the next
    position.  Raises [Invalid_argument] on a malformed byte. *)
