(** The APEX hardware monitor, as a finite-state machine over bus events.

    In the paper's FPGA implementation this is a small Verilog module
    snooping the CPU's PC, memory strobes, IRQ and DMA lines, maintaining a
    1-bit [EXEC] flag with the verified semantics:

    [EXEC = 1] iff, since the last violation/reset, the code in ER executed
    from its first instruction ([er_min]) to its legal exit ([er_exit])
    with no interrupt, no DMA activity, no write into ER, and OR was never
    written except by ER's own execution.

    This module consumes {!Dialed_msp430.Cpu.step_info} records (the same
    signals, sampled per retired instruction) and host-injected DMA events. *)

type violation =
  | Entered_er_mid of int       (** control flow entered ER at this pc,
                                    which is not [er_min] *)
  | Left_er_early of int        (** ER left from a non-exit instruction *)
  | Write_to_er of int          (** code modification attempt *)
  | Irq_in_er                   (** interrupt vectored during ER execution *)
  | Dma_in_er of int            (** DMA touched memory during ER execution *)
  | Or_written_outside of int   (** OR modified by non-ER code *)
  | Er_written_at_rest of int   (** ER modified outside execution *)

type t

val create : Layout.t -> t

val observe : t -> Dialed_msp430.Cpu.step_info -> unit
(** Feed one retired instruction's signals. *)

val dma_event : t -> addr:int -> unit
(** A DMA transfer touched [addr]. The monitor does not perform the write —
    callers pair this with the actual memory mutation. *)

val host_write_event : t -> addr:int -> unit
(** Any non-CPU mutation of memory (attacker with physical write access,
    bootloader...). Same EXEC consequences as DMA at rest. *)

val exec_flag : t -> bool
(** The EXEC bit covered by the attestation token. *)

val running : t -> bool
(** Currently inside an ER execution attempt. *)

val violations : t -> violation list
(** All violations since the last {!reset}, oldest first. The hardware only
    exposes EXEC; the list is simulator-side diagnostics. *)

val reset : t -> unit
(** Device reset: clears EXEC and the violation log. *)
