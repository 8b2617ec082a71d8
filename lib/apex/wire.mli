(** Wire format for PoX reports — the bytes the Prover actually sends.

    A fixed little-endian header, the OR payload, and the 32-byte HMAC
    tag:

    {v
      0   2  magic  "DX"
      2   1  version (1)
      3   1  exec flag (0/1)
      4   2  challenge length  (then the challenge bytes)
      ..  2  er_min, er_max, er_exit, or_min, or_max   (5 words)
      ..  2  or_data length    (then the OR bytes)
      ..  32 token
    v}

    Decoding is defensive: length fields are validated against the buffer
    before any allocation, and trailing garbage is rejected — a verifier
    parses these bytes from an untrusted device. Malformed input yields a
    typed {!error} (never an exception), so the gateway can count and
    report hostile traffic by cause. *)

val encode : Pox.report -> string

type error =
  | Bad_magic
  | Unsupported_version of int
  | Short_buffer of { what : string; offset : int }
      (** the buffer ended inside the named field — every strict prefix
          of a valid encoding decodes to exactly this *)
  | Bad_field of { what : string; value : int }
  | Trailing_garbage of { extra : int }

val error_to_string : error -> string

val decode : string -> (Pox.report, error) result

val decode_digested : string -> (Pox.report * string, error) result
(** {!decode}, plus the report's {!Pox.log_digest}, the verdict memo's
    key, taken from the parsed fields without re-encoding. The gateway
    uses this to feed the verdict memo straight from wire decode. *)
