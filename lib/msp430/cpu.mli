(** MSP430 CPU: fetch-decode-execute with cycle accounting.

    The CPU executes in place from {!Memory}, so attested program bytes are
    exactly the executed bytes. Each {!step} yields a {!step_info} record —
    the "bus signals" the APEX hardware monitor snoops. *)

type t

(** Why execution stopped. *)
type halt_reason =
  | Self_jump of int       (** [jmp $] at this address — normal termination
                               or instrumentation abort, by convention *)
  | Bad_opcode of int * int (** address, word *)

type step_info = {
  pc_before : int;
  instr : Isa.instr option;
  (** The executed instruction, or [None] when no instruction retired:
      an interrupt was vectored this step, or decode hit an invalid
      opcode (see {!halt_reason.Bad_opcode}). *)
  pc_after : int;
  accesses : Memory.access list;
  (** data + fetch accesses, program order. When the instruction was
      served by an attached {!Decode_cache}, fetch records are absent. *)
  irq_taken : bool;               (** an interrupt was vectored this step *)
  step_cycles : int;
}

(** Reusable per-CPU step result, overwritten by every {!step_raw};
    the allocation-free counterpart of {!step_info}. Every field is an
    int or an immediate, so writing it costs no write barrier; the
    retired instruction itself is read back with {!raw_instr}. *)
type raw = {
  mutable raw_pc_before : int;
  mutable raw_pc_after : int;
  mutable raw_executed : bool;       (** an instruction retired *)
  mutable raw_control : Isa.control;
  (** {!Isa.control} of the retired instruction; [Plain] when none did *)
  mutable raw_halted : bool;         (** this step latched {!halted} *)
  mutable raw_irq_taken : bool;
  mutable raw_cycles : int;
}

val create : Memory.t -> t
(** CPU with all registers zero and SP/PC unset; see {!set_reg}. *)

val reset : t -> unit
(** Return the CPU to its freshly-{!create}d state (registers, flags,
    counters, pending IRQ, latched halt, the {!raw} record) without
    touching the attached memory or executors. A [reset] CPU behaves
    bit-identically to a new one over the same attachments — the
    verifier's scratch arena relies on this to reuse one CPU across
    replays. *)

val memory : t -> Memory.t
val cycles : t -> int
(** Total elapsed cycles. *)

val steps : t -> int
(** Total retired instructions (including vectored interrupts). *)

val halted : t -> halt_reason option

val reset_halt : t -> unit
(** Clear a latched halt so the CPU can be re-pointed and re-run (the
    device uses this between operation invocations). *)

val get_reg : t -> Isa.reg -> int
val set_reg : t -> Isa.reg -> int -> unit

val get_flag : t -> [ `C | `Z | `N | `V | `GIE ] -> bool
val set_flag : t -> [ `C | `Z | `N | `V | `GIE ] -> bool -> unit

val request_irq : t -> vector:int -> unit
(** Assert the interrupt line; taken before the next fetch if GIE is set. *)

val irq_pending : t -> bool

val step : t -> step_info
(** Execute one instruction (or vector a pending interrupt). Raises
    [Invalid_argument] if the CPU is already halted. A [Self_jump] halt is
    reported in the returned info {e and} latches {!halted}. *)

val step_raw : t -> unit
(** Exactly {!step}, but the result is written into the reusable {!raw}
    record (read it via {!raw} before the next [step_raw]) and the
    per-step access trace stays in {!Memory} — read it in place with
    {!Memory.trace}. With {!attach_executors}, a step whose slot is
    cached and clean is a {!run_unobserved} cut at one step: one call of
    the slot's executor, allocating nothing unless a device claims an
    address it touches. *)

(** {1 Specialized executors}

    A decode cache over immutable code (the attested ER) can be
    compiled once into one closure per decodable slot, specialized to
    the slot's operation, size and operand modes: immediates, masks,
    absolute addresses and jump targets are resolved at compile time,
    and the closure calls the same flag helpers as the byte-level path.
    A form the bundled apps rarely run (a non-MOV operation into memory
    or pc, rrc, rra, swpb, sxt, reti) compiles to a call of that
    interpreter, which stays the reference semantics. *)

type executors
(** A compiled decode cache. Immutable: one table can serve every CPU,
    in every domain, attached to any memory holding the same code. *)

val compile : Decode_cache.t -> executors
(** Compile every cached slot. *)

val attach_executors : t -> executors -> unit
(** Attach the table's decode cache to this CPU's memory (as
    {!Memory.attach_code_cache} does, so a memory already holding a
    different table raises [Invalid_argument]) and serve its cached
    steps through the executors. This is how a decode cache is
    attached: a CPU serves cached steps only through executors. *)

val run_unobserved : t -> budget:int -> unit
(** Run one or more steps, back to back, and return after the first
    step the caller must observe: one that is not served by an attached
    executor (an interrupt is vectored, the slot is uncached or dirty,
    or no executors are attached), one that records a memory access,
    one that halts, or the one that brings {!steps} to [budget]. Only
    that last step is written to the {!raw} record and left in the
    {!Memory.trace}; every earlier step touched no memory and retired
    normally. A caller that acts only on memory accesses therefore
    misses nothing: a call pushes and a return pops, so both stop the
    run. Machine state, {!cycles} and {!steps} are exactly those of
    the same number of {!step_raw}s. Executor-served steps allocate
    nothing. Raises [Invalid_argument] if the CPU is already halted. *)

val raw : t -> raw
(** The record {!step_raw} writes into. One per CPU; do not retain
    across steps. *)

val raw_instr : t -> Isa.instr
(** The instruction the last {!step_raw} retired; meaningful iff
    [raw_executed]. *)

val run : t -> max_steps:int -> (step_info -> unit) -> halt_reason option
(** Step until halt or [max_steps], feeding each step to the callback.
    Returns the halt reason, or [None] when the step budget ran out. *)
