(** The prover agent: drives a {!Dialed_apex.Device.t} through
    attestation rounds against a gateway over any {!Transport}
    connection.

    Each round is [Ready] → [Request] → execute + attest → [Report] →
    [Verdict]. A [Busy] answer (rate limit, overload) or a timed-out
    read is retried with capped exponential backoff; the backoff is
    fully deterministic (the jitter is seeded hashing, no ambient
    randomness), so tests can pin exact delay sequences. *)

type config = {
  read_deadline : float option;
      (** seconds to wait for each gateway reply *)
  attempts : int;       (** tries per round, including the first *)
  backoff_base : float; (** seconds before the first retry *)
  backoff_cap : float;  (** upper bound on any single delay *)
  jitter_seed : string; (** deterministic jitter source *)
  mangle : (Dialed_apex.Pox.report -> Dialed_apex.Pox.report) option;
      (** corrupt reports before sending — adversarial tests only *)
}

val default_config : config
(** 5 s deadline, 4 attempts, 50 ms base, 2 s cap, no mangling. *)

val backoff_delay : config -> attempt:int -> float
(** Delay before retry [attempt] (1-based):
    [min cap (base * 2^(attempt-1))] scaled by a deterministic jitter
    factor in [0.5, 1.5) derived from [jitter_seed] and [attempt]. *)

type round = {
  attempt : int;                   (** 1 = first try succeeded *)
  accepted : bool;
  findings : (string * string) list;
  run : Dialed_apex.Device.run_result option;
      (** [None] when the round never got past [Busy]/timeouts *)
}

exception Protocol_violation of string
(** The gateway answered outside the protocol (e.g. a [Report] frame or
    garbage where a [Request]/[Verdict] was expected). *)

exception Denied of Codec.denial * string
(** The gateway's lifecycle registry refused or cut the session — a
    typed, in-protocol outcome (revoked key, quarantined device, stale
    firmware, unknown device), distinct from {!Protocol_violation}.
    Raised by {!attest_rounds}; {!attest_pipelined} reports it in the
    [denied] field instead so the completed prefix survives. *)

val attest_rounds :
  ?config:config ->
  device:(unit -> Dialed_apex.Device.t) ->
  device_id:string -> rounds:int -> Transport.conn -> round list
(** Connect-level driver: send [Hello], run [rounds] attestation rounds
    (a fresh device per round via [device ()]), send [Bye], and return
    one {!round} per requested round — in order, including rounds that
    exhausted their attempts ([accepted = false], [run = None]).
    Raises {!Protocol_violation} on out-of-protocol gateway traffic and
    lets {!Transport.Closed} escape when the gateway disappears. *)

(** {2 Pipelined sessions}

    The windowed protocol: one [Hello_ex]/[Welcome] negotiation, then up
    to the granted window of rounds in flight at once. The gateway
    pushes [Verdict#seq] frames as its verify engine completes them, so
    a verdict for round [n] may arrive before the [Request] for round
    [n+k] — the driver keeps per-sequence bookkeeping and never assumes
    lockstep. *)

type pipelined_round = {
  p_accepted : bool;
  p_findings : (string * string) list;
  p_latency : float;
      (** seconds from [Report#seq] sent to [Verdict#seq] received;
          [nan] for rounds that never completed *)
}

type pipelined = {
  granted : int;          (** window the gateway actually granted *)
  results : pipelined_round array;
      (** indexed by sequence number = issue order, length [rounds]
          (empty when the session was denied at handshake) *)
  busy_bounces : int;     (** [Busy] answers absorbed (with backoff) *)
  reply_timeouts : int;   (** reads that hit [read_deadline] *)
  denied : (Codec.denial * string) option;
      (** set when the gateway's lifecycle registry refused the session
          at handshake ([granted = 0], no rounds ran) or cut it
          mid-window — the completed prefix of [results] is preserved,
          which is how revocation-to-quarantine latency is measured in
          rounds. Verdicts the gateway sent before the cut count even
          when a send of ours meets the closed connection first *)
}

val attest_pipelined :
  ?config:config ->
  ?window:int ->
  ?firmware:string ->
  ?respond:(seq:int -> Dialed_core.Protocol.request -> Dialed_apex.Pox.report) ->
  device:(unit -> Dialed_apex.Device.t) ->
  device_id:string -> rounds:int -> Transport.conn -> pipelined
(** Run [rounds] rounds over one pipelined session, requesting [window]
    (default 8) rounds in flight; the gateway may grant less, never
    more. [firmware] (default [""] = no claim) is the firmware version
    announced in [Hello_ex]; a lifecycle-enforcing gateway checks it
    against the fleet's rollout and routes reports to that version's
    verify plan. The empty claim encodes byte-identically to the
    pre-lifecycle [Hello_ex], so old gateways are unaffected. [respond]
    overrides report production (default: a fresh [device ()] executes
    and attests per request — same work as {!attest_rounds});
    [config.mangle] applies to whichever report [respond] produced.
    Rounds the session could not finish (timeout budget or Busy budget
    exhausted) come back [p_accepted = false] with a [("client", _)]
    finding. A lifecycle denial does {e not} raise: it lands in
    [denied]. Raises {!Protocol_violation} on out-of-window sequence
    numbers, duplicate verdicts, an oversized [Welcome] grant, or any
    frame outside the pipelined protocol — including talking to a
    pre-windowing gateway (which drops the unknown [Hello_ex] frame). *)
