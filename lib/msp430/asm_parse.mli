(** Text assembly parser.

    Line-oriented MSP430 assembly in the TI style:

    {v
        ; comment
        OR_MAX = 0x8000            ; symbol definition
        .org 0xe000
    entry:
        mov  #0x0280, sp
        mov.b &0x0020, r15
        call #subroutine
        tst  r15                   ; emulated mnemonics are expanded
        jnz  entry
        jmp  $                     ; $ = here (halt idiom)
    v}

    Supported directives: [.org], [.word], [.byte], [.ascii], [.space],
    [.align]. Emulated mnemonics ([ret], [pop], [br], [clr], [inc], [dec],
    [incd], [decd], [inv], [tst], [rla], [rlc], [adc], [sbc], [dadc],
    [nop], [clrc], [setc], [clrz], [setz], [clrn], [setn], [dint], [eint],
    [jz], [jnz], [jhs], [jlo]) expand to their core equivalents, exactly as
    the hardware defines them. *)

exception Error of int * string
(** Line number (1-based) and message. *)

val parse : string -> Program.t
(** Parse a whole source text. *)
