(** Token-bucket rate limiter for the gateway's attestation requests.

    A bucket holds up to [burst] tokens and refills at [rate] tokens per
    second; issuing a challenge costs one token. When the bucket is dry
    the gateway answers [Busy] instead of a challenge, bounding the
    verification work any fleet of provers can demand.

    The clock is injectable ([?now], seconds) so tests are deterministic;
    without it the wall clock is used. The gateway gives each session
    its own bucket, so one flooding prover drains only its own. The
    bucket is internally locked and safe to share across threads. *)

type t

val create : ?now:float -> rate:float -> burst:float -> unit -> t
(** [burst] is the bucket capacity (and the initial fill). Raises
    [Invalid_argument] on a negative rate or a non-positive burst. *)

val try_take : ?now:float -> t -> bool
(** Take one token; [false] when the bucket is dry — the caller should
    decline the request. *)
