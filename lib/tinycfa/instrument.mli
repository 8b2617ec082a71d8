(** Tiny-CFA: control-flow attestation by automated assembly
    instrumentation (paper §II-C, and features F2/F5 of §III-C).

    The pass rewrites an attested operation so that every control-flow-
    altering instruction appends its actual destination to the log stack in
    OR (pointer in the reserved register [r4], growing downward), and every
    store with a dynamic address is checked against the live log range
    [\[r4, OR_MAX\]]. An entry check verifies [r4 = OR_MAX]; any violation
    branches to an in-ER abort loop, which can never satisfy APEX's legal
    exit, so EXEC stays 0.

    Input contract (provided by the build pipeline / MiniC code generator):
    - the operation neither uses [r4] nor contains [reti];
    - a [cmp]/[tst]-style flag definition is immediately followed by its
      conditional jump (no store in between) — the pass verifies this;
    - the program defines the symbols {!or_min_symbol} and
      {!or_max_symbol}. *)

exception Error of string

val reserved_register : Dialed_msp430.Isa.reg
(** [r4], the paper's choice for the log stack pointer. *)

val or_min_symbol : string
(** ["__OR_MIN"]. *)

val or_max_symbol : string
(** ["__OR_MAX"] — also where DIALED's F3 saves the base stack pointer. *)

val abort_label : string
(** ["__cfa_abort"], emitted (with its self-loop) by {!instrument}. *)

type config = {
  log_uncond_jumps : bool;
      (** instrument direct [jmp]/[br #label] too (default true; ablation
          knob for the D4 design decision) *)
  check_stores : bool;
      (** emit F5 write-bound checks (default true) *)
}

val default_config : config

val log_value_tagged :
  fresh:(unit -> string) -> [ `Cf | `Input ] ->
  Dialed_msp430.Program.operand -> Dialed_msp430.Program.item list
(** Same primitive with an explicit log-site tag; the DIALED pass uses
    [`Input] for I-Log appends. *)

val validate_no_insertion_hazard :
  needs_insertion:(Dialed_msp430.Program.instr -> bool) ->
  Dialed_msp430.Program.t -> unit
(** Shared flag-liveness validator: raises {!Error} if an instruction the
    given pass would prepend code to sits between a flag definition and the
    conditional jump consuming it. *)

val read_guard :
  fresh:(unit -> string) -> lo:Dialed_msp430.Program.expr ->
  size_bytes:int -> Dialed_msp430.Isa.reg ->
  Dialed_msp430.Program.expr option -> Dialed_msp430.Isa.reg ->
  Dialed_msp430.Program.item list
(** [read_guard ~fresh ~lo ~size_bytes base offset scratch]: the
    OAT-style selective alternative to an F4 read log. Computes the
    effective address [base + offset] into the (pushed) scratch register
    and aborts unless it stays inside the declared object
    [\[lo, lo+size_bytes)]. A guarded read needs no log entry: the
    verifier's replay reproduces the value from its own memory once the
    address provably avoids MMIO, the critical set and the log itself —
    which the static dataflow audit re-checks from the binary. *)

val instrument :
  ?config:config -> Dialed_msp430.Program.t -> Dialed_msp430.Program.t
(** Instrument an operation body. Prepends the entry check
    ([cmp #__OR_MAX, r4], abort unless equal: Fig. 4 lines 2-4), rewrites
    control flow and stores, appends the abort loop. Raises {!Error} on
    contract violations (use of r4, [reti], flag-liveness hazards,
    computed branches it cannot attest). *)

val count_sites : Dialed_msp430.Program.t -> int * int
(** [(cf, input)] log-site counts of an instrumented program, told apart
    by their [Log_site] annotations (diagnostic; used by benches and the
    static auditor's cross-checks). *)

val count_logged_sites : Dialed_msp430.Program.t -> int
(** Control-flow log sites only — [fst (count_sites prog)]. Earlier
    revisions counted every append (input logging included); callers
    that want the combined number should add both components of
    {!count_sites}. *)
