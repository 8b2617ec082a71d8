(** The prover agent: drives a {!Dialed_apex.Device.t} through
    attestation rounds against a gateway over any {!Transport}
    connection.

    Each round is [Ready] → [Request] → execute + attest → [Report] →
    [Verdict]. Both wire dialects run on one session state machine
    driven by an {!Evloop}: a legacy [Hello] session is a window-1
    session whose frames carry no sequence numbers, and a [Hello_ex]
    session keeps up to its granted window of rounds in flight. A
    [Busy] answer (rate limit, overload) backs off with capped
    exponential delay before the window is topped up again; the
    backoff is fully deterministic (the jitter is seeded hashing, no
    ambient randomness), so tests can pin exact delay sequences. *)

type config = {
  read_deadline : float option;
      (** seconds to wait for the next gateway reply while rounds are in
          flight (and for the [Welcome]) *)
  attempts : int;
      (** session retry rule, at least 1: [attempts] consecutive reply
          timeouts end the session, and it absorbs at most
          [attempts × rounds] [Busy] bounces *)
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

exception Protocol_violation of string
(** The gateway answered outside the protocol (e.g. a [Report] frame or
    garbage where a [Request]/[Verdict] was expected). *)

type pipelined_round = {
  p_accepted : bool;
  p_findings : (string * string) list;
  p_latency : float;
      (** seconds from [Report] sent to [Verdict] received; [nan] for
          rounds that never completed *)
}

type pipelined = {
  granted : int;
      (** window the gateway granted; 1 for a legacy session *)
  results : pipelined_round array;
      (** indexed by sequence number = issue order, length [rounds]
          (empty when the session was denied before it was admitted) *)
  busy_bounces : int;     (** [Busy] answers absorbed (with backoff) *)
  reply_timeouts : int;   (** reply deadlines that expired *)
  denied : (Codec.denial * string) option;
      (** set when the gateway's lifecycle registry refused the session
          in place of its [Welcome] (or, on a legacy session, before its
          first [Request]: [granted = 0], no results) or cut it
          mid-window — the completed prefix of [results] is preserved,
          which is how revocation-to-quarantine latency is measured in
          rounds. Verdicts the gateway sent before the cut count even
          when a send of ours meets the closed connection first *)
}

val attest_rounds :
  ?config:config ->
  device:(unit -> Dialed_apex.Device.t) ->
  device_id:string -> rounds:int -> Transport.conn -> pipelined
(** Run [rounds] rounds over a legacy [Hello] session (one round in
    flight, a fresh device per round via [device ()]) on a private
    event loop on the caller's thread, then send [Bye] and close the
    connection. Rounds the session could not finish come back
    [p_accepted = false] with a [("client", _)] finding; a lifecycle
    denial lands in [denied]. Raises {!Protocol_violation} on
    out-of-protocol gateway traffic and {!Transport.Closed} when the
    gateway disappears mid-session. *)

val attest_pipelined :
  ?config:config ->
  ?window:int ->
  ?firmware:string ->
  ?respond:(seq:int -> Dialed_core.Protocol.request -> Dialed_apex.Pox.report) ->
  device:(unit -> Dialed_apex.Device.t) ->
  device_id:string -> rounds:int -> Transport.conn -> pipelined
(** Run [rounds] rounds over one pipelined session, requesting [window]
    (default 8) rounds in flight; the gateway may grant less, never
    more. The gateway pushes [Verdict#seq] frames as its verify engine
    completes them, so a verdict for round [n] may arrive before the
    [Request] for round [n+k]. [firmware] (default [""] = no claim) is
    the firmware version announced in [Hello_ex]; a lifecycle-enforcing
    gateway checks it against the fleet's rollout and routes reports to
    that version's verify plan. The empty claim encodes
    byte-identically to the pre-lifecycle [Hello_ex], so old gateways
    are unaffected. [respond] overrides report production (default: a
    fresh [device ()] executes and attests per request — same work as
    {!attest_rounds}); [config.mangle] applies to whichever report
    [respond] produced. Outcomes and exceptions as for
    {!attest_rounds}; out-of-window sequence numbers, duplicate
    verdicts, an oversized [Welcome] grant, or talking to a
    pre-windowing gateway (which drops the unknown [Hello_ex] frame)
    are protocol violations. *)

(** {2 Sessions on a shared loop}

    What the blocking drivers above run, exposed so that a caller with
    its own loop can hold thousands of sessions on a few loops (the
    bench-side load generator in [bench/swarm] does). *)

type greeting =
  | Legacy  (** [Hello]: window 1, unsequenced frames *)
  | Windowed of { window : int; firmware : string }  (** [Hello_ex] *)

type failure =
  | Closed  (** the gateway closed the connection mid-session *)
  | Violation of string  (** out-of-protocol or undecodable traffic *)

val failure_to_string : failure -> string

type session

val open_session :
  loop:Evloop.t ->
  ?config:config ->
  ?on_up:(unit -> unit) ->
  on_done:((pipelined, failure) result -> unit) ->
  greeting:greeting ->
  respond:(seq:int -> Dialed_core.Protocol.request -> Dialed_apex.Pox.report) ->
  device_id:string -> rounds:int -> Transport.conn -> session
(** Attach [conn] to [loop] and send the greeting. [on_up] runs once,
    when the handshake is over whichever way it ended (at once for a
    legacy session); no round is played before {!start}. [on_done]
    runs once with the outcome when the session ends, after which the
    session closes its connection (once its [Bye] has flushed). Call
    on the loop's thread. *)

val start : session -> unit
(** Play the rounds as soon as the session is up (immediately if it
    already is). *)

val is_closed : session -> bool
(** The session ended and its connection is closed: nothing of it is
    left on the loop. *)
