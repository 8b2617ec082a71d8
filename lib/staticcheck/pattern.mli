(** Recognizers for the canonical instrumentation sequences, matched on
    decoded instructions.

    Each recognizer commits only on a {e complete} structural match —
    operand registers consistent, guard branches resolving to the right
    join points, every guard targeting the abort loop — so application
    code can never be half-claimed as instrumentation, and any tampered
    sequence falls back to application code where the completeness and
    register-discipline passes flag it. *)

type append = {
  ap_index : int;
  ap_addr : int;
  ap_logged : Dialed_msp430.Isa.src;  (** operand pushed onto the log *)
  ap_next : int;
}

val append_len : int
(** Instructions in a log append (5). *)

val append :
  Stream.t -> abort:int option -> or_min:int -> int -> append option
(** [mov <src>, 0(r4); sub #2, r4; cmp #OR_MIN, r4; jge ok;
    mov #abort, pc; ok:] *)

val append_head : Stream.t -> int -> bool
(** Whether the instruction writes through [0(r4)] — the first append
    instruction; a head without a full append is a damaged sequence. *)

val entry_check :
  Stream.t -> abort:int option -> or_max:int -> int -> int option
(** [cmp #OR_MAX, r4; jeq ok; mov #abort, pc; ok:] — returns the index
    past the check. *)

type store_check = {
  sc_index : int;
  sc_scratch : int;
  sc_base : int;
  sc_offset : int;
  sc_next : int;   (** index of the store the check guards *)
}

val store_check :
  Stream.t -> abort:int option -> or_max:int -> int -> store_check option

val store_check_matches : store_check -> Dialed_msp430.Isa.instr -> bool
(** Whether the guarded store writes through exactly the checked
    effective address. *)

type read_guard = {
  rg_index : int;
  rg_scratch : int;
  rg_base : int;
  rg_offset : int;   (** 0 when the emitter elided the add *)
  rg_lo : int;
  rg_hi_excl : int;
  rg_next : int;     (** index of the guarded read *)
}

val read_guard : Stream.t -> abort:int option -> int -> read_guard option
(** The OAT-style selective alternative to an F4 log
    ({!Dialed_tinycfa.Instrument.read_guard}): [push s; mov base, s;
    \[add #x, s;\] cmp #lo, s; jc ok1; mov #abort, pc; ok1: cmp #hi, s;
    jnc ok2; mov #abort, pc; ok2: mov @sp+, s]. Proves the effective
    address stays inside [\[lo, hi)] instead of logging the value. *)

val read_guard_matches : read_guard -> Dialed_msp430.Isa.instr -> bool
(** Whether the guarded read's dynamic operand is exactly the checked
    effective address. *)

type read_check = {
  rc_index : int;
  rc_append : append;
  rc_store_checks : store_check list;
  rc_checked : int list;   (** indices of the duplicated app instruction *)
  rc_next : int;
}

val read_check :
  Stream.t -> abort:int option -> or_min:int -> or_max:int -> int ->
  read_check option
(** Both F4 shapes: the register-destination load form (destination doubles
    as scratch, load duplicated on the in/out-of-stack paths) and the
    general pushed-scratch form. *)
