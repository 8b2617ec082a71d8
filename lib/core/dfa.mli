(** The DIALED data-flow instrumentation pass: features F3 and F4 of
    paper §III-C / §IV.

    {b F3 — operation arguments.} At the operation's entry the pass logs
    the base stack pointer (written to the word at [OR_MAX], since [r4]
    starts there) followed by all eight argument registers [r8..r15] —
    always all of them, so no input can be missed regardless of how many
    arguments the application actually passes (Fig. 4).

    {b F4 — runtime data inputs.} Every memory-read instruction whose
    address is not statically within the operation's stack is instrumented:
    the read address is compared against the stack bounds
    [\[SP, mem\[OR_MAX\]\]]; values read from outside are data inputs and
    are appended to I-Log (Fig. 5). Reads with statically-known addresses
    (globals, memory-mapped peripherals) are by Definition 1 always outside
    the stack, so they are logged unconditionally without the runtime
    check — design decision D2.

    The pass runs {e before} Tiny-CFA's pass; both mark their emitted code
    as [Synth], so neither re-instruments the other. The shared log
    primitive and abort label come from {!Dialed_tinycfa.Instrument}. *)

exception Error of string

type selective = {
  critical : string list;
      (** names of the globals declared [critical] in the source; only
          their reads (plus all peripheral reads) keep F4 log entries *)
}

type config = {
  static_fast_path : bool;
      (** log statically-out-of-stack reads without a runtime range check
          (D2). [false] = emit the Fig. 5 check for every read. *)
  trust_frame_reads : bool;
      (** treat [X(sp)] and [X(r6)] (frame pointer) reads as statically
          in-stack and skip them entirely. [false] = runtime-check them
          too. *)
  selective : selective option;
      (** [Some _] switches F4 to OAT-style selective attestation: static
          reads of non-critical named globals are left unlogged (the
          verifier's replay reproduces them from its own memory), and
          dynamic reads of compiler-named non-critical arrays get a
          {!Dialed_tinycfa.Instrument.read_guard} instead of a log entry.
          Peripheral reads, critical reads and unattributed dynamic reads
          keep the full F4 treatment. Sound only together with the
          [Dialed_staticcheck] dataflow audit, which re-proves coverage
          from the binary. [None] (default) = log everything. *)
}

val default_config : config
(** Both booleans true, [selective = None] — the configuration the
    evaluation uses. *)

val instrument :
  ?config:config -> Dialed_msp430.Program.t -> Dialed_msp430.Program.t
(** Apply F3 + F4 to an operation body (before Tiny-CFA). Raises {!Error}
    on contract violations (r4 use, [reti], flag hazards, auto-increment
    reads it cannot attest). *)

val count_input_sites : Dialed_msp430.Program.t -> int
(** Number of I-Log append sites in an instrumented program. *)
