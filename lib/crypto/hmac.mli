(** HMAC-SHA256 (RFC 2104).

    The MAC VRASED's SW-Att computes over the attested region, and the MAC
    DIALED's verifier checks over (challenge, ER, OR, EXEC). *)

val mac : key:string -> string -> string
(** 32-byte raw tag. *)

val mac_parts : key:string -> string list -> string
(** MAC over the concatenation of the parts, without building the
    concatenation eagerly. *)

(** {2 Precomputed key states}

    A fleet verifier MACs thousands of reports under one device key;
    absorbing the padded key block twice per report dominates short-message
    HMAC. {!key_state} hashes the ipad/opad blocks once; {!mac_parts_with}
    then clones the cached states per call. A [key_state] is immutable
    after construction and safe to share across domains. *)

type key_state

val key_state : key:string -> key_state

val mac_with : key_state -> string -> string

val mac_parts_with : key_state -> string list -> string
(** [mac_parts_with (key_state ~key) parts = mac_parts ~key parts]. *)

val equal : string -> string -> bool
(** Tag comparison whose time does not depend on the bytes: for equal
    lengths it always reads every byte; strings of different lengths are
    unequal at once. Use it, not [String.equal], to check a received
    token against the expected one. *)

val verify : key:string -> msg:string -> tag:string -> bool
(** [equal (mac ~key msg) tag]. *)

val hex : string -> string
(** Re-export of {!Sha256.hex}. *)
