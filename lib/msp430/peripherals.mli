(** Scripted memory-mapped peripherals for a standard "board".

    The board models the devices the paper's three applications need:
    GPIO ports (actuation + digital sensing), a UART receive stream (network
    commands), an ADC (analog sensing) and a timer with a capture register
    (ultrasonic echo timing). Inputs are host-scripted queues; outputs
    (GPIO and UART writes) are recorded so tests and the verifier's policies
    can observe actuation.

    Register addresses follow the MSP430F1xx memory map. *)

(** {1 Register addresses} *)

val p1in : int
val p2out : int
val p3out : int

val ifg1 : int
(** Interrupt-flag byte: bit 6 = UART RX data ready. *)

val u0rxbuf : int
val u0txbuf : int

val adc12mem0 : int
(** ADC conversion memory (word register). *)

val ta0r : int
(** Free-running cycle counter (word register). *)

val taccr1 : int
(** Capture register loaded on each ultrasonic trigger (word register). *)

val urxifg_bit : int
(** Bit mask inside {!ifg1} signalling UART RX data available. *)

type t

val create : Memory.t -> t
(** Build the board and attach all devices to the memory. *)

(** {1 Scripting inputs} *)

val feed_uart : t -> int list -> unit
(** Queue bytes to arrive on the UART. *)

val feed_adc : t -> int list -> unit
(** Queue 12-bit samples for successive ADC reads (last value repeats). *)

val feed_echo : t -> int list -> unit
(** Queue echo durations (timer ticks) delivered to {!taccr1} on each
    ultrasonic trigger (write with bit 0 set to [p2out]). *)

val set_gpio_in : t -> port:[ `P1 | `P2 | `P3 ] -> int -> unit
(** Drive the input pins of a port. *)

(** {1 Observing outputs} *)

val uart_sent : t -> int list
(** Bytes the program wrote to the UART TX register, in order. *)

val gpio_writes : t -> (string * int) list
(** Chronological (port register name, value) for every PxOUT write — the
    board's record of actuation. *)

val last_gpio : t -> port:[ `P1 | `P2 | `P3 ] -> int
(** Last value written to the port's OUT register (0 if never written). *)
