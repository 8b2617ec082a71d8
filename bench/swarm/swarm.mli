(** A load generator: thousands of simulated provers driving pipelined
    attestation sessions against one gateway, from a bounded pool of
    worker threads.

    Each simulated prover is one {!Client} session over its own
    connection; [concurrency] worker threads each run an {!Evloop} that
    multiplexes a share of the sessions, so [clients] can far exceed
    the thread count and every session is held open at once. The aggregate outcome reports saturation throughput and the
    latency distribution (per-round report→verdict time), which is what
    the swarm experiment plots against the raw fleet-engine rate.

    Determinism: per-prover backoff jitter seeds are derived from the
    prover index, so two runs bounce off a loaded gateway with the same
    (decorrelated) retry pattern. Wall-clock numbers of course vary. *)

open Dialed_net

type config = {
  clients : int;            (** simulated provers (one session each) *)
  rounds : int;             (** attestation rounds per prover *)
  window : int;             (** per-session window to request *)
  concurrency : int;        (** worker threads (event loops) *)
  device_prefix : string;   (** device ids are [prefix-%04d] *)
  distinct_logs : int;
      (** fold the fleet onto this many execution-path shapes: prover
          [i] is handed [shape = i mod distinct_logs], so a
          shape-respecting responder produces repeat-heavy traffic
          (clients/distinct_logs provers per log shape — what a real
          fleet of identical well-behaved devices looks like, and what
          the gateway's verdict memo feeds on). [0] (default): every
          prover is its own shape, the memo-hostile extreme *)
  firmware : int -> string;
      (** firmware version prover [i] claims in its [Hello_ex] —
          [fun _ -> ""] (default) claims nothing; a staged-rollout
          experiment splits the fleet across versions here so some
          provers verify on the stable plan and some on the canary *)
  client : Client.config;   (** template; jitter seed is per-prover *)
}

val default_config : config
(** 100 clients, 4 rounds, window 8, 16 workers, distinct shapes, no
    firmware claim, 30 s read deadline. *)

type outcome = {
  clients_run : int;
  clients_failed : int;     (** sessions that died (dial/protocol/EOF) *)
  clients_denied : int;
      (** sessions the gateway's lifecycle registry refused at handshake
          or cut mid-window ([Codec.Denied]) — a typed outcome, counted
          separately from [clients_failed] *)
  denied_by_cause : (string * int) list;
      (** denial counts keyed by {!Codec.denial_to_string} (["revoked"],
          ["quarantined"], ["stale-firmware"], ["unknown-device"]),
          sorted by cause name; [[]] when nothing was denied *)
  rounds_accepted : int;
  rounds_rejected : int;
  busy_bounces : int;       (** [Busy] answers absorbed across the swarm *)
  reply_timeouts : int;
  wall_seconds : float;
  throughput : float;       (** completed rounds per second *)
  clients_per_thread : int;
      (** sessions each worker thread holds open simultaneously:
          [ceil (clients / workers)] *)
  latencies : float array;  (** sorted report→verdict times, seconds *)
}

val cheap_responder :
  build:(unit -> Dialed_apex.Device.t) -> unit ->
  seq:int -> Dialed_core.Protocol.request -> Dialed_apex.Pox.report
(** [cheap_responder ~build ()] makes a per-prover responder that builds
    and runs the device once (on its first request), then answers every
    challenge by re-attesting the standing run — per-round prover cost
    collapses to one SW-Att pass, so the gateway/verifier side is what
    saturates even when swarm and gateway share a small host. Each
    responder is single-session state; make a fresh one per prover. *)

val run :
  ?config:config ->
  dial:(unit -> Transport.conn) ->
  respond:(client:int -> shape:int -> seq:int ->
           Dialed_core.Protocol.request -> Dialed_apex.Pox.report) ->
  unit -> outcome
(** Drive the swarm to completion. [dial] opens one connection per
    prover; [respond ~client ~shape] produces that prover's per-request
    responder (e.g. [fun ~client:_ ~shape:_ -> cheap_responder ~build ()]
    — note the responder must be created per client to get fresh
    state). [shape] is the prover's log-shape index under
    [distinct_logs]; a responder that varies device inputs by [shape]
    (and ignores [client] otherwise) makes the repeat ratio real.

    Each of the [concurrency] worker threads runs an {!Evloop} that
    multiplexes its share of the provers ([client i] is owned by
    [worker (i mod concurrency)]) as {!Client} sessions, so all
    [clients] sessions are held {e open simultaneously} — the c10k
    load shape: 10k provers over 16 threads. After every prover has
    dialed and completed its [Hello_ex]/[Welcome] handshake (or died
    trying), a cross-worker barrier releases the fleet at once, so the
    gateway's peak-connection counter provably reaches [clients] before
    the first round is played. Window top-up, Busy backoff, reply
    deadlines and the give-up rules are the session's own.

    A prover whose session fails (a failed dial, a protocol violation,
    the gateway closing on it) is counted in [clients_failed]; the rest
    of the swarm keeps running. A prover the gateway denies (lifecycle
    registry) is {e not} a failure: it lands in
    [clients_denied]/[denied_by_cause], and only its completed prefix
    of rounds is counted in the accepted/rejected totals — including
    verdicts delivered before a cut that raced the prover's own send. *)

val latency_p : outcome -> float -> float
(** [latency_p o 99.0] = the p99 round latency in seconds (0 when no
    round completed). *)

val pp_outcome : Format.formatter -> outcome -> unit

val outcome_to_json : outcome -> string
(** One flat JSON object (latencies as p50/p90/p99 milliseconds). *)
