(** Execution trace capture and pretty-printing.

    A lightweight collector for {!Cpu.step_info} records, with queries and
    a disassembly-style printer — used by the CLI's [--trace] mode and by
    debugging sessions against the simulator. *)

type entry = {
  t_index : int;
  t_pc : int;
  t_instr : Isa.instr option;  (** [None]: IRQ vectoring or bad opcode *)
  t_pc_after : int;
  t_accesses : Memory.access list;
  t_cycles : int;
}

type t

val create : unit -> t

val record : t -> Cpu.step_info -> unit
(** Feed from a {!Cpu.run} callback. *)

val length : t -> int

val total_cycles : t -> int

val writes_to : t -> addr:int -> entry list
(** Entries whose data writes touched the byte at [addr]. *)

val unique_pcs : t -> int list
(** Sorted distinct instruction addresses executed. *)

val coverage : t -> static_starts:int list -> int * int
(** [(executed, total)] over a static list of instruction-start addresses
    (e.g. from {!Disasm.range}): basic execution coverage of a region. *)

val pp : ?limit:int -> Format.formatter -> t -> unit
(** Print up to [limit] entries (default all), eliding the middle when
    truncated. *)
