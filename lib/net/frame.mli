(** Length-prefixed binary framing for the attestation gateway.

    Every message crossing a gateway connection travels as one frame: a
    4-byte little-endian payload length followed by the payload bytes.
    The verifier parses these frames from {e untrusted} devices, so
    decoding is defensive end to end:

    - a hard per-frame size cap bounds the memory any peer can make the
      gateway commit to ({!default_cap} unless overridden);
    - the decoder is incremental — bytes arrive in whatever chunks the
      transport delivers, and complete frames are surfaced as they close;
    - truncation, oversize declarations and garbage yield typed errors,
      never exceptions, and a decoder that has reported an error stays
      poisoned (feeding it more bytes keeps returning the same error).

    The framing layer is content-agnostic; {!Codec} gives the payloads
    meaning. *)

type error =
  | Oversize of { declared : int; cap : int }
      (** a frame header declared a payload larger than the cap — reading
          it would let a hostile peer make the gateway buffer [declared]
          bytes, so the connection must be cut instead *)

val error_to_string : error -> string

val default_cap : int
(** 1 MiB — comfortably above any PoX report this repo produces. *)

val encode : ?cap:int -> string -> string
(** Frame one payload. Raises [Invalid_argument] when the payload exceeds
    [cap] — encoding oversize frames is a caller bug, not peer input. *)

type decoder

val decoder : ?cap:int -> unit -> decoder

val feed : decoder -> string -> (string list, error) result
(** Absorb the next chunk of bytes and return every frame payload that
    completed, in order. [Ok []] simply means no frame has closed yet.
    Once an [Error] is returned the decoder is poisoned and every later
    call returns the same error. *)

val residue : decoder -> int
(** Bytes buffered towards an incomplete frame. Nonzero residue at
    end-of-stream means the peer died (or lied) mid-frame. *)

val cap : decoder -> int
