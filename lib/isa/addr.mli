(** Byte addresses and I-cache line arithmetic.

    Addresses are plain non-negative [int]s (63-bit on 64-bit OCaml, ample
    for the simulated address space).  A cache line is 64 bytes, matching
    the Haswell configuration of the paper's Table II; the line abstraction
    is what every cache-side component speaks. *)

type t = int
(** A byte address. *)

type line = int
(** A cache-line number: [addr / line_size].  Lines are totally ordered
    and hashable, and are the unit of I-cache allocation, eviction and
    invalidation. *)

val line_size : int
(** Bytes per cache line (64). *)

val line_of : t -> line
(** Line containing a byte address. *)

val base_of_line : line -> t
(** First byte address of a line. *)

val offset : t -> int
(** Byte offset within the containing line. *)

val lines_of_range : t -> bytes:int -> line list
(** [lines_of_range addr ~bytes] is the ordered list of lines touched by
    the byte range [[addr, addr+bytes)].  Empty when [bytes <= 0]. *)

val count_lines_of_range : t -> bytes:int -> int
(** Number of lines in the range, without allocating. *)

val set_index : line -> sets:int -> int
(** [set_index line ~sets] maps a line to a cache set by the usual
    modulo indexing.  Requires [sets] to be a power of two. *)

val pp_line : Format.formatter -> line -> unit
(** Renders the line's base address, e.g. [L:0x401a40]. *)
