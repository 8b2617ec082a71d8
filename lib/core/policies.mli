(** Reusable verifier policies (OAT-style operation invariants, but
    checked by Vrf over the replayed execution instead of on-device).

    Policies inspect the {!Verifier.trace}: the reconstructed instruction
    stream, the authenticated inputs, and the replayed memory image. They
    compose with {!all_of} / {!any_of}. *)

type t = Verifier.policy

val all_of : string -> t list -> t
(** Pass iff every sub-policy passes. *)

val any_of : string -> t list -> t
(** Pass iff at least one sub-policy passes. *)

val negate : string -> t -> t

val final_word : name:string -> addr:int -> expect:int -> t
(** The replayed memory must end with this word value at [addr]
    (e.g. an actuation port left in a safe state). *)

val writes_to : name:string -> addr:int -> max_count:int -> t
(** At most [max_count] stores touched [addr] during the operation
    (actuation rate limiting). *)

val never_writes : name:string -> lo:int -> hi:int -> t
(** No store may touch [\[lo, hi\]] (e.g. a configuration block that the
    operation must treat as read-only). *)

val arg_range : name:string -> arg:int -> lo:int -> hi:int -> t
(** Operation argument [arg] (0 = r15) must lie within the range. *)

val max_steps : name:string -> int -> t
(** The replayed execution retired at most N instructions (runtime
    budget / liveness bound). *)
