(** Predecoded instruction table for replay-speed execution.

    APEX guarantees the attested code region is immutable while it runs,
    so a verifier replaying the same firmware thousands of times can
    decode every instruction {e once}: [build] walks the even addresses
    of a range (typically the ER) and records, per address, the decoded
    instruction, its fall-through pc, byte length and cycle count.

    The table is immutable after [build] and safe to share read-only
    across domains (one table per verification plan). Staleness is the
    {e consumer's} problem: {!Memory.attach_code_cache} pairs the table
    with a per-memory dirty map so self-modified or device-shadowed
    addresses fall back to byte-level fetch + decode. *)

type entry = {
  dc_instr : Isa.instr;
  dc_next : int;    (** fall-through pc, masked as {!Cpu.set_reg} would *)
  dc_len : int;     (** encoded size in bytes: 2, 4 or 6 *)
  dc_cycles : int;  (** {!Isa.cycles} of the instruction, precomputed *)
  dc_control : Isa.control;  (** {!Isa.control}, precomputed *)
}

type t

val build : ?lo:int -> ?hi:int -> get_word:(int -> int) -> unit -> t
(** Decode at every even address of [lo..hi] (default: the full address
    space) reachable through [get_word] (use an untraced reader, e.g.
    {!Memory.peek16} on a scratch memory). [lo] must be even. Addresses
    that are undecodable, or whose encoding extends past [hi], are left
    uncached. Sizing the range to the executable region keeps both this
    table and every attached memory's dirty map proportional to the
    firmware, not the address space. *)

val lo : t -> int
val hi : t -> int

val entries : t -> entry option array
(** The raw table, indexed by [(pc - lo) lsr 1]. Treat as read-only. *)
