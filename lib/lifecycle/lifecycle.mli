(** Device lifecycle: the operational trust loop around the verifier.

    The gateway's protocol and verdict machinery treat every peer the
    same; this module holds what differs {e per device}: whether the
    operator knows it, which signing key it was provisioned with,
    whether that key is still trusted, which firmware it should be
    running, and where it sits in the lifecycle state machine

    {v
        register            accepted verdict
      ──────────► registered ───────────────► attested
                      │  ▲                       │
        revoked key / │  │ release (admin)       │ revoked key /
        admin         ▼  │                       ▼ admin
                     quarantined ◄───────────────┘
    v}

    The only transition out of [Quarantined] is an explicit operator
    {!release} — never attestation, reconnection, or time. Revoking a
    key ({!revoke_key}) quarantines every device provisioned with it
    {e immediately}: a mid-session {!recheck} on the very next frame
    denies the device before another verdict is issued.

    Firmware policy is a staged rollout: one [stable] version, an
    optional [canary] version with a deterministic percentage of the
    fleet assigned to it, and promote/rollback moves. A device
    presenting a version outside {[ {stable} ∪ {canary} ]} is denied
    ([Stale_firmware]) but stays [Registered] — it can update and
    return without operator action. (Contrast revocation, which is a
    trust judgement and does quarantine.)

    Every mutation is appended to an optional journal file, one record
    per line, and replayed by {!create} on restart — the registry
    survives gateway restarts without a database.

    All operations are thread-safe (one internal mutex); the gateway's
    loop thread, the CLI, and tests share a [t] freely. *)

type reason =
  | Key_revoked       (** device's provisioned key was revoked *)
  | Admin             (** operator quarantined it directly *)

type state =
  | Registered        (** known, trusted, not yet attested this epoch *)
  | Attested          (** at least one accepted verdict since release *)
  | Quarantined of reason

type denial =
  | Unknown_device    (** id not in the registry (and anonymity is off
                          for anonymous peers) *)
  | Revoked           (** presented a key in the revoked set *)
  | Quarantined_device  (** in quarantine; needs operator release *)
  | Stale_firmware    (** firmware outside the current allowlist *)

val denial_to_string : denial -> string
val state_to_string : state -> string

type device = {
  id : string;
  key_id : string;      (** provisioning key; revocation is keyed on this *)
  firmware : string;    (** last firmware version presented; [""] = never *)
  state : state;
  rounds : int;         (** accepted verdicts attributed to this device *)
}

type rollout = {
  stable : string;              (** [""] = no firmware policy (allow all) *)
  canary : (string * int) option;  (** version, fleet percentage 0–100 *)
}

type summary = {
  devices : int;
  registered : int;
  attested : int;
  quarantined : int;
  revoked_keys : int;
  rollout : rollout;
  allow_anonymous : bool;
}

type t

val create : ?journal:string -> ?allow_anonymous:bool -> unit -> t
(** [allow_anonymous] defaults to [true]: peers greeting with an empty
    device id are served outside the registry (counted, never
    journaled). If [journal] names an existing file its records are
    replayed first (a trailing partial line — torn by a crash mid-
    append — is ignored); subsequent mutations append to it, one
    flushed line each. *)

val close : t -> unit
(** Flush and close the journal channel (idempotent). The registry
    remains usable in memory afterwards; further mutations are simply
    no longer journaled. *)

(* ── Registry ────────────────────────────────────────────────── *)

val register : t -> id:string -> key_id:string -> (unit, string) result
(** Admit a device into the registry in state [Registered]. Re-
    registering an existing id re-keys it (and is how an operator
    rotates a device onto a fresh key) but never clears quarantine. *)

val find : t -> string -> device option
val devices : t -> device list
(** Sorted by id. *)

val summary : t -> summary

(* ── Revocation ──────────────────────────────────────────────── *)

val revoke_key : t -> string -> int
(** Add the key to the revoked set and quarantine every device
    provisioned with it, returning how many devices transitioned into
    quarantine now. Idempotent. Devices registered onto the key
    {e later} are quarantined at their next admission or recheck. *)

val is_revoked : t -> string -> bool

val quarantine : t -> string -> bool
(** Operator-forced quarantine ([Admin]); [false] if the id is
    unknown. *)

val release : t -> string -> (unit, string) result
(** The {e only} way out of quarantine: back to [Registered] (the
    device must re-attest to become [Attested] again). Errors on an
    unknown id or a device whose key is still revoked — re-key it with
    {!register} first. Releasing a non-quarantined device is a no-op
    [Ok]. *)

(* ── Firmware rollout ────────────────────────────────────────── *)

val set_stable : t -> string -> unit
(** Set the stable firmware version; [""] clears firmware policy. *)

val begin_canary : t -> version:string -> percent:int -> (unit, string) result
(** Start a staged rollout: [version] becomes the canary for a
    deterministic [percent] (0–100) of the fleet. Both the stable and
    canary versions are allowed fleet-wide while the rollout runs. *)

val promote : t -> (unit, string) result
(** Canary becomes the new stable; the old stable version is no longer
    allowed (devices still on it are denied [Stale_firmware] until
    they update — not quarantined). *)

val rollback : t -> (unit, string) result
(** Abort the rollout: canary cleared, canary-version devices are
    denied [Stale_firmware] at their next admission. *)

val rollout : t -> rollout

val assigned_canary : t -> string -> bool
(** Whether this device id falls in the canary percentage — a
    deterministic hash of (canary version, id), stable across restarts
    and independent of registration order. *)

val expected_firmware : t -> string -> string
(** What the device {e should} be running: the canary version if a
    rollout is live and the id is assigned to it, else stable. *)

val firmware_allowed : t -> string -> bool
(** [true] iff the version is stable, the live canary, the version is
    [""] (peer did not claim one), or no policy is set. *)

(* ── Gateway hooks ───────────────────────────────────────────── *)

val admit : t -> device_id:string -> firmware:string -> (unit, denial) result
(** Handshake-time decision. An empty [device_id] is an anonymous
    legacy peer: admitted iff [allow_anonymous]. A registered device is
    checked against the revoked set (quarantining it on the spot if its
    key was revoked since last seen), its quarantine state, and the
    firmware allowlist; its last-presented firmware is recorded. *)

val recheck : t -> string -> (unit, denial) result
(** Mid-session gate, called on every inbound frame and again
    immediately before each verdict is sent: catches a revocation that
    landed after admission, so no further verdict is issued once the
    key is revoked. Anonymous ([""]), unknown-but-anonymous-allowed
    sessions pass. Cheap: one mutex acquisition, two hash lookups. *)

val note_attested : t -> string -> unit
(** Attribute one accepted verdict: [Registered] → [Attested] (the
    transition is journaled once; the per-device round count is not).
    No-op for anonymous or unknown ids, and {e never} moves a
    quarantined device. *)

(* ── Introspection / serialization ───────────────────────────── *)

val json_string : string -> string
(** [s] as a quoted JSON string: quote, backslash and control bytes
    escaped, every other byte (UTF-8 included) as is. Every operator
    string the registry and the admin commands print as JSON goes
    through it. *)

val summary_to_json : summary -> string
val device_to_json : device -> string
