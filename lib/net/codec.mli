(** Gateway message codec: the payloads inside {!Frame}s.

    One attestation round over a connection, after a one-time [Hello]:

    {v
      prover                          gateway (Vrf)
        | -- Hello { device_id } ------> |        (once per connection)
        | -- Ready --------------------> |
        | <------ Request { chal, args } |   (or Busy when rate-limited)
        | -- Report (Apex.Wire bytes) -> |
        | <------ Verdict { accepted,.. }|
        | ... more Ready rounds ...      |
        | -- Bye ----------------------> |
    v}

    [Request] carries exactly {!Dialed_core.Protocol.request} — the
    challenge and the operation arguments the verifier wants executed.
    [Report] carries the {!Dialed_apex.Wire} encoding of the PoX report,
    opaque to this layer (the gateway decodes and judges it). [Verdict]
    summarizes the fleet verifier's outcome: the accept bit plus
    [(finding kind, rendered finding)] pairs.

    Like {!Frame}, decoding is total: malformed payloads from untrusted
    peers return typed errors, never raise. Operation arguments travel
    as unsigned 16-bit words (they land in MSP430 registers); encoding
    masks, decoding yields [0 .. 0xFFFF].

    {b Pipelined sessions.} A prover that wants several rounds in flight
    opens with [Hello_ex] instead of [Hello], naming the window it would
    like; the gateway answers [Welcome] with the window it actually
    grants (never more than requested). Within such a session every
    round is sequence-numbered: the gateway issues [Request_seq], the
    prover answers [Report_seq] with the same [seq], and the verdict
    comes back as [Verdict_seq] — in per-session FIFO order, but with up
    to [window] rounds open at once. The extension is wire-compatible:
    the five new tags are only ever sent after an explicit [Hello_ex] /
    [Welcome] exchange, so a single-shot peer speaking the original
    seven messages interoperates unchanged.

    {b Lifecycle extension.} [Hello_ex] additionally carries the
    firmware version the device claims to be running — appended to the
    encoding only when non-empty, so a no-claim [Hello_ex] is
    byte-identical to the pre-lifecycle wire format. A gateway running
    a device registry answers an untrusted greeting (or a mid-session
    frame from a freshly revoked device) with [Denied], naming the
    cause; it is only ever sent when a registry denies, so legacy
    anonymous peers served under the gateway's [allow_anonymous] policy
    never see the new tag. *)

type denial = Dialed_lifecycle.Lifecycle.denial =
  | Unknown_device
  | Revoked
  | Quarantined_device
  | Stale_firmware
(** The registry's denial causes, re-exported. On the wire a cause is
    one byte: 1 revoked, 2 quarantined, 3 stale firmware, 4 unknown
    device. *)

type msg =
  | Hello of { device_id : string }
  | Ready
  | Request of { challenge : string; args : int list }
  | Report of string       (** {!Dialed_apex.Wire}-encoded PoX report *)
  | Verdict of { accepted : bool; findings : (string * string) list }
  | Busy of string         (** server declined (rate limit, overload) *)
  | Bye
  | Hello_ex of { device_id : string; window : int; firmware : string }
      (** pipelined session opener; [window] in-flight rounds requested;
          [firmware] is the version the device claims ([""] = no claim,
          encoded identically to the pre-lifecycle format) *)
  | Welcome of { window : int }
      (** gateway's reply to [Hello_ex]: the granted window *)
  | Request_seq of { seq : int; challenge : string; args : int list }
  | Report_seq of { seq : int; wire : string }
      (** answers the [Request_seq] carrying the same [seq] *)
  | Verdict_seq of
      { seq : int; accepted : bool; findings : (string * string) list }
  | Denied of { cause : denial; detail : string }
      (** gateway refuses (at handshake) or terminates (mid-session,
          after a revocation landed) the session for lifecycle reasons *)

val denial_to_string : denial -> string
(** {!Dialed_lifecycle.Lifecycle.denial_to_string}. *)

type error =
  | Empty                                        (** zero-length payload *)
  | Bad_tag of int
  | Truncated of { what : string; offset : int }
  | Trailing of { extra : int }
  | Bad_value of { what : string; value : int }

val error_to_string : error -> string

val max_window : int
(** Largest expressible pipeline window (u16; 65535). Sequence numbers
    are u32, so a session can run [2^32] rounds before wrapping —
    far past any realistic connection lifetime. *)

val encode : msg -> string
(** Raises [Invalid_argument] if a field reaches 64 KiB, past its 16-bit
    length prefix — caller bug, not peer input. *)

val decode : string -> (msg, error) result

val pp_msg : Format.formatter -> msg -> unit
(** One-line rendering for logs (payloads elided to lengths). *)
