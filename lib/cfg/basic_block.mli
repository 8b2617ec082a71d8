(** Static control-flow graph recovery from a binary range.

    Linear-sweep disassembly over the executable range, leader detection,
    and basic-block construction. The static audit ([Dialed_staticcheck])
    runs its register-discipline, footprint and dataflow passes over
    these blocks. *)

(** How a basic block ends. *)
type terminator =
  | Fallthrough of int          (** block ends at a leader boundary *)
  | Jump_uncond of int
  | Jump_cond of { taken : int; fallthrough : int }
  | Call of { target : int option; return_to : int }
      (** [target = None] for indirect calls *)
  | Ret                         (** ret / reti *)
  | Branch_indirect             (** e.g. [br rN]: target unknown statically *)
  | Halt                        (** self-jump *)

type block = {
  b_start : int;
  b_last : int;                 (** address of the final instruction *)
  b_instrs : (int * Dialed_msp430.Isa.instr) list;
  term : terminator;
}

type t

val build : Dialed_msp430.Memory.t -> lo:int -> hi:int -> entry:int -> t
(** Decode [\[lo, hi\]] and build the CFG rooted at [entry]. *)

val blocks : t -> block list

val block_at : t -> int -> block option
(** The block starting at this address. O(1). *)

val block_containing : t -> int -> block option
(** The block whose address range covers this address. O(log n). *)

val successors : t -> int -> int list
(** Static successor block-start addresses of the block at this address
    (empty for returns/indirect/halt). *)

val call_return_sites : t -> int list
(** All addresses immediately following a call instruction — the only
    legal destinations of any return. *)

val is_instruction_start : t -> int -> bool
(** Whether the address is the start of a decoded instruction (jumping
    anywhere else is an illegal edge by construction). *)
