(** The Proof-of-eXecution report (APEX's protocol object).

    The token binds: the verifier's challenge, the layout parameters, the
    actual bytes of ER at attestation time, the OR contents (DIALED's
    CF-Log + I-Log) and the EXEC flag. The verifier recomputes it with the
    {e expected} ER image; any code modification, log tampering or
    incomplete execution breaks acceptance. *)

type report = {
  challenge : string;
  er_min : int;
  er_max : int;
  er_exit : int;
  or_min : int;
  or_max : int;
  exec : bool;
  or_data : string;   (** raw OR bytes [or_min .. or_max+1] *)
  token : string;     (** HMAC-SHA256 *)
}

val issue :
  Vrased.t -> Dialed_msp430.Memory.t -> exec:bool -> Layout.t ->
  challenge:string -> report
(** Device-side: measure ER and OR from memory and MAC everything. *)

val verify :
  key:string -> expected_er:string -> report -> (unit, string) result
(** Verifier-side: recompute the token using the report's OR data and the
    ER bytes the verifier expects to be installed. [Error] explains the
    first check that failed (bad token / EXEC = 0). *)

val verify_with :
  key_state:Dialed_crypto.Hmac.key_state -> expected_er:string -> report ->
  (unit, string) result
(** {!verify} with a precomputed {!Dialed_crypto.Hmac.key_state} — the
    fleet path, which MACs thousands of reports under one device key. *)

val log_digest : report -> string
(** The verdict memo's key for a report, defined here and nowhere else:
    SHA-256 (raw bytes) of the 6-byte tag [DMEMO1], the five layout
    words [er_min], [er_max], [er_exit], [or_min], [or_max] (16-bit
    little-endian), and the OR bytes. That is exactly the material the
    replay consumes. The challenge, token and EXEC flag are left out:
    they are per-session authenticity material, checked on every report
    and never cached. *)
