(** 64 KiB flat byte-addressable memory with access tracing and
    memory-mapped device hooks.

    Every CPU-visible access (fetch, data read, data write) is recorded into
    a per-step trace that the APEX hardware monitor consumes; host-side
    [peek]/[poke]/[load_image] accesses bypass both devices and the trace,
    mirroring a debugger back-door.

    Word accesses are little-endian and force even alignment (bit 0 of the
    address is ignored), as on the real MCU. *)

type t

type access_kind = Fetch | Read | Write

type access = {
  kind : access_kind;
  addr : int;            (** aligned effective address *)
  size : Isa.size;
  value : int;           (** value read or written *)
}

(** A memory-mapped peripheral claiming a byte range. Reads fall back to the
    backing RAM when the hook answers [None]; writes are mirrored into
    backing RAM in addition to the hook (so attestation hashes see them). *)
type device = {
  dev_name : string;
  dev_lo : int;
  dev_hi : int;                      (** inclusive *)
  dev_read : int -> int option;      (** byte read *)
  dev_write : int -> int -> unit;    (** byte write *)
  dev_tick : int -> unit;            (** advance device time by n cycles *)
}

val no_tick : int -> unit
(** The tick of a device with no notion of time. A device whose
    [dev_tick] is physically this function is never ticked, so a step
    costs it nothing. *)

val size_bytes : int
(** Address-space size: 65536. *)

val create : unit -> t
(** Fresh zeroed memory with no devices. *)

val attach : t -> device -> unit
(** Attach a peripheral. Later attachments win on overlap. *)

val tick : t -> int -> unit
(** Advance all devices by the given number of CPU cycles. *)

val ticking : t -> bool
(** Whether {!tick} reaches any device: some attached device's tick is
    not {!no_tick}. *)

(** {1 Host (untraced) access} *)

val peek8 : t -> int -> int
val peek16 : t -> int -> int
val poke8 : t -> int -> int -> unit
val poke16 : t -> int -> int -> unit

val load_image : t -> addr:int -> string -> unit
(** Copy raw bytes into backing memory. *)

val dump : t -> addr:int -> len:int -> string
(** Copy raw bytes out of backing memory. *)

(** {1 CPU (traced) access} *)

val read : t -> Isa.size -> int -> int
val write : t -> Isa.size -> int -> int -> unit
val fetch_word : t -> int -> int

val begin_step : t -> unit
(** Clear the per-step access trace. *)

val step_trace : t -> access list
(** Accesses recorded since the last {!begin_step}, in program order.
    Allocates a fresh list; hot paths read {!trace} instead. *)

(** The per-step access trace in its packed form: [tr_buf.(0 ..
    tr_len - 1)] are the accesses since the last {!begin_step}, in
    program order, one int each:

    {v value (bits 0-15) | addr (16-31) | kind (32-33) | size (34) v}

    with kind 0 = [Fetch], 1 = [Read], 2 = [Write] and size 0 = [Byte],
    1 = [Word]. The record is the memory's own, updated in place by
    every access: read it, do not keep it across steps. The CPU resets
    [tr_len] at the start of each step, as {!begin_step} does. Reading
    it costs no call and no allocation, which is why the replay loop
    uses it. *)
type trace = {
  mutable tr_buf : int array;
  mutable tr_len : int;
}

val trace : t -> trace
(** This memory's trace record (the same physical record for the
    memory's lifetime). *)

(** {1 Decode cache}

    Pairing a {!Decode_cache.t} with this memory gives the CPU a
    predecoded fast path for instruction fetch. The memory tracks a
    per-word dirty map: any byte written through {!write}/{!poke8}/
    {!load_image} after the cache is attached, and any byte claimed by
    an attached device, permanently invalidates the covering slots, so
    self-modifying or device-shadowed code falls back to the bit-exact
    byte-level fetch path. *)

val attach_code_cache : t -> Decode_cache.t -> unit
(** Attach a predecoded table (built from the same loaded image) and
    reset the dirty map. Call after the image is loaded; bytes inside
    already-attached device ranges are marked dirty immediately. A
    memory keeps its first table: attaching it again only resets the
    dirty map, and attaching a different one raises [Invalid_argument].
    A CPU serves cached slots only through executors compiled from the
    table, so attach it with {!Cpu.attach_executors}, which calls this. *)

(** The attached table and its word-dirty map, read in place by the
    CPU's fetch. Without a cache the range is empty ([code_lo >
    code_hi]). For an even [pc] in [code_lo..code_hi], slot [s = (pc -
    code_lo) lsr 1] may be served from [code_entries.(s) = Some e] only
    if [code_dirty] is ['\000'] at every slot the encoding covers ([s],
    plus [s + 1] when [e.dc_len > 2], plus [s + 2] when [e.dc_len > 4]).
    Otherwise the CPU must fetch and decode the bytes. *)
type code = private {
  mutable code_entries : Decode_cache.entry option array;
  mutable code_lo : int;
  mutable code_hi : int;
  mutable code_dirty : Bytes.t;
}

val code : t -> code
(** This memory's code view (the same physical record for the memory's
    lifetime; {!attach_code_cache} updates it in place). *)

(** {1 Snapshot / reset}

    A memory that is reused across many short runs (the verifier's
    per-domain scratch arena) resets by copy-back instead of
    reallocation: {!snapshot} captures the RAM contents (and the decode
    cache's word-dirty map) once, and every backing write afterwards
    marks its 256-byte page in a page-dirty map, so
    {!reset_to_snapshot} restores only the pages the run actually
    touched — O(footprint), not O(64 KiB).

    The snapshot covers RAM contents, the word-dirty map, and the
    per-step trace cursor. It does {e not} cover device-internal state
    or the device table itself: attach devices before snapshotting and
    reset their state separately. *)

val snapshot : t -> unit
(** Capture the current RAM contents as the reset baseline and clear
    the page-dirty map. Re-attaching a code cache after a snapshot
    refreshes the captured word-dirty map, so the snapshot survives it. *)

val reset_to_snapshot : t -> unit
(** Restore every page written since the last {!snapshot} (or
    {!attach_code_cache}-refresh) from the baseline, restore the
    word-dirty map, and clear the per-step trace. Raises
    [Invalid_argument] if {!snapshot} was never called. *)
