(** Symbolic (label-bearing) assembly programs.

    This is the representation the MiniC code generator emits, the Tiny-CFA
    and DIALED instrumentation passes rewrite, and {!Assemble} lowers to a
    binary image. Mirrors what the paper's Python instrumenter does to
    compiler-produced [.s] files. *)

(** Link-time constant expressions. *)
type expr =
  | Num of int
  | Lab of string
  | Add of expr * expr
  | Sub of expr * expr

(** Operands; the same type is used for sources and destinations
    ([Imm], [Ind], [Ind_inc] are rejected as destinations at assembly). *)
type operand =
  | Reg of Isa.reg
  | Imm of expr
  | Indexed of expr * Isa.reg
  | Abs of expr
  | Ind of Isa.reg
  | Ind_inc of Isa.reg

type instr =
  | Two of Isa.two_op * Isa.size * operand * operand
  | One of Isa.one_op * Isa.size * operand
  | Jump of Isa.cond * string  (** target label *)
  | Reti

(** Machine-checkable provenance attached to the following instruction;
    consumed by the verifier's detectors. *)
type annot =
  | Array_store of { array_name : string; base : expr; size_bytes : int }
      (** next instruction stores through an address derived from this
          array object *)
  | Array_load of { array_name : string; base : expr; size_bytes : int }
  | Log_site of [ `Cf | `Input ]
      (** next instruction is an instrumentation log push of this kind;
          the verifier's replay uses it to split CF-Log from I-Log *)
  | Synth_mark of string
      (** provenance of the following synthetic block ("entry", "store",
          "read", "abort"); consumed by overhead attribution *)
  | Src_line of string

type item =
  | Label of string
  | Instr of instr
  | Synth of instr
      (** instruction emitted by an instrumentation pass; assembles exactly
          like [Instr] but is skipped by {!map_instrs}, so a later pass
          never re-instruments another pass's code *)
  | Word_data of expr list
  | Byte_data of int list
  | Ascii of string
  | Space of int          (** reserve n zeroed bytes *)
  | Align                 (** pad to even address *)
  | Org of int            (** set the location counter *)
  | Equ of string * expr  (** symbol definition *)
  | Annot of annot
  | Comment of string

type t = item list

val instr_registers : instr -> Isa.reg list
(** Registers appearing in the instruction's operands. *)

val registers_used : t -> Isa.reg list
(** All registers appearing in any operand of the program, sorted,
    de-duplicated. Used to verify that the instrumentation register [r4] is
    free, as the paper requires. *)

val map_instrs : (instr -> item list) -> t -> t
(** Rewrite every [Instr] item, leaving other items (including [Synth])
    untouched. The workhorse of the instrumentation passes. *)

val instr_count : t -> int
(** Number of instructions, original + synthetic. *)

val exists_label : t -> string -> bool

val fresh_label : t -> prefix:string -> unit -> string
(** A generator of labels not colliding with any label in the program (nor
    with each other). *)

val pp_operand : Format.formatter -> operand -> unit
val pp_instr : Format.formatter -> instr -> unit

val to_string : t -> string
