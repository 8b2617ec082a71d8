(** MSP430 instruction-set definitions.

    This module defines the {e concrete} (fully numeric) instruction
    representation that the encoder, decoder and CPU share, together with the
    per-instruction size and cycle metadata taken from the MSP430x1xx family
    user's guide. Symbolic (label-bearing) assembly lives in {!Program}. *)

type reg = int
(** Register index in [0..15]. [r0]=PC, [r1]=SP, [r2]=SR/CG1, [r3]=CG2. *)

val pc : reg
val sp : reg
val sr : reg
val cg : reg

val reg_name : reg -> string
(** ["pc"], ["sp"], ["sr"], ["cg"] or ["rN"]. *)

val reg_of_name : string -> reg option
(** Inverse of {!reg_name}; also accepts ["r0".."r15"]. *)

type size = Byte | Word

(** Source addressing modes (As). Immediates materialised through the
    constant generator are represented as plain [Imm] — the encoder decides
    whether a CG encoding applies. *)
type src =
  | Sreg of reg              (** register mode [Rn] *)
  | Sindexed of int * reg    (** indexed [X(Rn)] *)
  | Sabsolute of int         (** absolute [&ADDR] *)
  | Sindirect of reg         (** indirect [@Rn] *)
  | Sindirect_inc of reg     (** indirect auto-increment [@Rn+] *)
  | Simm of int              (** immediate [#N] *)

(** Destination addressing modes (Ad). *)
type dst =
  | Dreg of reg              (** register mode [Rn] *)
  | Dindexed of int * reg    (** indexed [X(Rn)] *)
  | Dabsolute of int         (** absolute [&ADDR] *)

(** Format-I (double operand) opcodes. *)
type two_op =
  | MOV | ADD | ADDC | SUBC | SUB | CMP
  | DADD | BIT | BIC | BIS | XOR | AND

(** Format-II (single operand) opcodes. [RETI] is carried separately. *)
type one_op = RRC | SWPB | RRA | SXT | PUSH | CALL

(** Format-III (jump) condition codes. *)
type cond = JNE | JEQ | JNC | JC | JN | JGE | JL | JMP

type instr =
  | Two of two_op * size * src * dst
  | One of one_op * size * src
  | Jump of cond * int   (** signed word offset in [-512..511];
                             target = pc_of_jump + 2 + 2*offset *)
  | Reti

val two_op_name : two_op -> string
val one_op_name : one_op -> string
val cond_name : cond -> string

val instr_size_bytes : instr -> int
(** Encoded size of the instruction in bytes (2, 4 or 6). *)

(** How an instruction moves the call stack: a [call], a [ret]
    ([mov @sp+, pc]), or neither. Immediate constructors, so a mutable
    field of this type is written without a write barrier. *)
type control = Plain | Call | Ret

val control : instr -> control

val writes_back : two_op -> bool
(** Whether a format-I operation stores its result in its destination:
    all but [cmp] and [bit]. *)

(** What an instruction does to the program counter. The static audit's
    CFG and the CF-Log walker both read control flow from here. *)
type flow =
  | Next                   (** falls through to the next instruction *)
  | Goto of int            (** [jmp], or [mov #a, pc] *)
  | Branch of int          (** conditional jump to this target, else next *)
  | Call_to of int option  (** [call]; [None] when the target is computed *)
  | Return                 (** [ret] ([mov @sp+, pc]) or [reti] *)
  | Computed               (** any other write to pc, e.g. [br r5] *)
  | Halt                   (** [jmp $]: a jump to itself *)

val flow : at:int -> next:int -> instr -> flow
(** [at] is the instruction's address and [next] the address after
    it. Unlike {!control}, a byte-sized [mov @sp+, pc] counts as a
    [Return]. *)

val cycles : instr -> int
(** Execution cycle count per the family user's guide tables (format I
    including the destination-is-PC column, format II, jumps and RETI). *)

val pp : Format.formatter -> instr -> unit
(** Disassembly-style printer, e.g. [mov.b @r15, 2(r14)]. *)
