(** Indexed instruction stream over a linear sweep of the ER.

    The auditor works on decoded instructions only — no symbols, no
    annotations — because the binary under audit is untrusted and carries
    neither. *)

type entry = {
  addr : int;
  ins : Dialed_msp430.Isa.instr;
  next : int;   (** address of the following instruction *)
}

type t = {
  code : entry array;
  index_of : (int, int) Hashtbl.t;
  lo : int;
  hi : int;
  stopped : (int * int) option;
      (** [(addr, word)] where the sweep hit an undecodable word, if any *)
}

val of_memory : Dialed_msp430.Memory.t -> lo:int -> hi:int -> t

val length : t -> int
val get : t -> int -> entry
val index_at : t -> int -> int option
(** Index of the instruction starting at an address, if it is one. *)

val slice : t -> int -> int -> entry list option
(** [slice t i n]: the [n] entries starting at index [i], or [None] when
    the stream is too short. *)

val jump_target : entry -> int -> int
(** Resolved target of [Jump (_, off)] at this entry. *)

val discover_abort : t -> int option
(** The abort-loop address: the self-jump most guards branch to (via
    [mov #a, pc]); [None] when no guard names a self-jump. *)
