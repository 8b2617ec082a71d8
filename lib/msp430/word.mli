(** 16-bit two's-complement arithmetic helpers.

    All values are carried as native OCaml [int]s; these helpers keep them
    inside the 16-bit (or 8-bit) range and interpret sign where needed.
    The CPU's execute path and {!Memory}'s access path write the same
    masks out inline instead: under dune's dev profile ([-opaque]) a call
    into this module is never inlined, and those paths run once per
    replayed instruction. *)

val mask16 : int -> int
(** Truncate to the low 16 bits. *)

val mask8 : int -> int
(** Truncate to the low 8 bits. *)

val signed16 : int -> int
(** Interpret the low 16 bits as a two's-complement value in
    [\[-32768, 32767\]]. *)

val signed8 : int -> int
(** Interpret the low 8 bits as a two's-complement value in
    [\[-128, 127\]]. *)

val is_neg16 : int -> bool
(** Sign bit (bit 15) of the low 16 bits. *)

val low_byte : int -> int
(** Synonym of {!mask8}. *)

val high_byte : int -> int
(** Bits 15..8 of the low 16 bits. *)

val swap_bytes : int -> int
(** Exchange the low and high bytes of a 16-bit value. *)

val sign_extend8 : int -> int
(** Extend the low 8 bits to a 16-bit two's-complement value. *)

val bit : int -> int -> bool
(** [bit n v] is true when bit [n] of [v] is set. *)

val set_bit : int -> bool -> int -> int
(** [set_bit n b v] forces bit [n] of [v] to [b]. *)
