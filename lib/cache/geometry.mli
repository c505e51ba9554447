(** Cache geometry: size, associativity and derived set count.

    Defaults match the paper's Table II Haswell configuration. *)

type t = { size_bytes : int; ways : int }

val v : size_bytes:int -> ways:int -> t
(** Requires the derived set count to be a positive power of two. *)

val sets : t -> int
(** [size_bytes / (ways * line_size)]. *)

val lines : t -> int
(** Total line capacity. *)

val set_of_line : t -> Ripple_isa.Addr.line -> int
(** Set index of a line under modulo placement. *)

val l1i : t
(** 32 KiB, 8-way: the paper's L1 instruction cache. *)

val l2 : t
(** 1 MiB, 16-way unified L2. *)

val l3 : t
(** 10 MiB, 20-way shared L3 — rounded to 8 MiB/16-way so the set count
    stays a power of two (noted in DESIGN.md; only timing-level impact). *)

val pp : Format.formatter -> t -> unit
