(** SHA-256 (FIPS 180-4).

    VRASED computes an HMAC-SHA256 over program memory inside its ROM
    routine; this module is the hash that backs {!Hmac}.

    {b Kernel selection.} At module initialisation the module asks the CPU
    once whether it has the x86 SHA extensions. If it does
    ({!accelerated}), {!update} and {!finalize} hash all full blocks of
    an input with one call to a C kernel built on the SHA-NI round
    instructions. Otherwise they use the OCaml compression function
    written from scratch here, which is also the reference the tests
    compare against ({!reference_digest}). Both give the same bytes;
    there is no switch. On non-x86 targets the kernel is compiled out.

    The streaming context is {e imperative}: it owns its chaining
    state and a partial-block buffer, and {!update} folds data
    into the chaining state in place, returning the {e same} context (the
    functional signature is kept so existing pipelines read naturally).
    Use a context linearly, or {!copy} it first to fork — e.g. the cached
    HMAC key states in {!Hmac.key_state}. {!finalize} does not consume
    the context: it pads into a local block, so updating after finalize
    continues the original stream. Contexts are not thread-safe; share
    them across domains only via {!copy}. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> ctx
(** Absorb bytes. Mutates and returns [ctx] itself. *)

val copy : ctx -> ctx
(** Independent snapshot of the streaming state (fresh buffers);
    the clone and the original can diverge safely, even across domains. *)

val finalize : ctx -> string
(** 32-byte raw digest of everything absorbed so far. The context is not
    mutated and remains usable. *)

val digest : string -> string
(** One-shot hash; 32-byte raw digest. *)

val accelerated : bool
(** [true] when this process hashes with the SHA-NI kernel. *)

val reference_digest : string -> string
(** [digest] computed with the OCaml compression function whatever the
    CPU: a test oracle for the kernel, and the baseline the replay bench
    measures it against. Not a configuration option. *)

val hex : string -> string
(** Lowercase hex of a raw byte string (handy for digests). *)

val block_size : int
(** 64, needed by HMAC. *)

val round_constants : int32 array
(** The 64 K constants — exported for the on-device SW-Att code
    generator, which bakes them into its ROM image. *)

val initial_state : int32 array
(** The 8 initial H words. *)
