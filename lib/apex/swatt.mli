(** SW-Att running {e on the device}: HMAC-SHA256 in generated MSP430
    code, with the attestation key behind a hardware gate.

    VRASED's root of trust is an immutable ROM routine that computes
    HMAC-SHA256 over the attested memory, with hardware access control
    making the key readable {e only} while the program counter is inside
    that ROM. {!Vrased} models the routine natively for speed; this module
    builds the real thing for the simulator:

    - a code generator emitting ~2 KiB of MSP430 assembly (32-bit
      arithmetic synthesized from 16-bit add/addc/rrc chains, the full
      SHA-256 schedule and compression, HMAC ipad/opad staging) placed in
      a ROM region at 0xA000;
    - a key-gate device: reads of the key region return the key bytes only
      while the PC is inside the ROM — anywhere else reads as zero (and
      the key never sits in simulator RAM at all);
    - a runner that delivers a challenge, executes the routine to
      completion and returns the 32-byte tag.

    Because all region addresses and lengths are known at build time, the
    generated code uses constant bounds and precomputed padding — there is
    no dynamic length handling in the ROM, mirroring how VRASED fixes its
    attested range in hardware.

    The produced tag equals {!Pox}'s token for the same report fields, so
    a report assembled from the on-device tag verifies with the ordinary
    {!Pox.verify} / {!Dialed_core} verifier. On-device attestation of a
    typical operation costs a few hundred thousand simulated cycles —
    consistent with VRASED's published seconds-scale runtimes at MCU clock
    rates. *)

val key_base : int
(** 0x6A00 — the gated key region (64 bytes), VRASED's key address. *)

val pad_challenge : string -> string
(** Zero-pad to 32 bytes, the fixed on-device challenge size; raises
    [Failure] beyond 32 bytes. *)

type installed

val install : key:string -> Layout.t -> Device.t -> installed
(** Assemble SW-Att for the device's layout, load the ROM, attach the
    key gate and the EXEC register. The key never enters simulator
    memory. *)

val attest : installed -> Device.t -> challenge:string -> string
(** Run the ROM routine on the device CPU and return the 32-byte tag.
    Raises [Failure] if the routine does not halt cleanly. *)

val report : installed -> Device.t -> challenge:string -> Pox.report
(** A full PoX report whose token was computed by the device itself
    (challenge padded to 32 bytes). *)
