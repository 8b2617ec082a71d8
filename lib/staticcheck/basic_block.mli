(** Static control-flow graph recovery over the audit's linear sweep.

    Leader detection and basic-block construction over a {!Stream},
    with each instruction's effect on the pc read from
    {!Dialed_msp430.Isa.flow}. The audit runs its register-discipline,
    footprint and dataflow passes over these blocks. *)

type block = {
  b_start : int;
  b_last : int;                 (** address of the final instruction *)
  b_next : int;
      (** address after it: where a [Next] block falls through, a
          [Branch] goes untaken and a [Call_to] returns *)
  b_instrs : (int * Dialed_msp430.Isa.instr) list;
  term : Dialed_msp430.Isa.flow;
      (** the final instruction's flow; [Next] when the block ends
          because a leader follows, [Halt] for trailing straight-line
          code *)
}

type t

val build : Stream.t -> entry:int -> t
(** The CFG of the swept range, rooted at [entry]. *)

val blocks : t -> block list

val block_at : t -> int -> block option
(** The block starting at this address. O(1). *)

val block_containing : t -> int -> block option
(** The block whose address range covers this address. O(log n). *)

val successors : t -> int -> int list
(** Static successor block-start addresses of the block at this address
    (a call's is its target; empty for returns/indirect/halt). *)

val call_return_sites : t -> int list
(** All addresses immediately following a call instruction — the only
    legal destinations of any return. *)
