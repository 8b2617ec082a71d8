(** The Vrf gateway: accepts prover connections over any {!Transport}
    listener, issues challenges, and judges framed PoX reports through
    the fleet verification engine.

    One readiness event loop (epoll, or poll(2) where epoll is
    unavailable) on a single thread runs every connection as an
    explicit state machine (DESIGN §5g):

    {v
      event loop ──► accept burst ──► econn state machines
                       │  readiness → Evconn pump → Frame/Codec decode
                       │  Hello / Hello_ex → session (window W)
                       │  Ready → window + rate checks → Request | Busy
                       │  Report[_seq] → Wire.decode → gate_redeem
                       │        → Fleet.stream_try_submit ──► pool domains
                       │           (window full → loop-local wait queue)
                       └─ per-connection deadline timers (timer wheel)
      stream progress ──self-pipe──► loop drains verdicts → Verdict[_seq]
    v}

    Memory per idle connection is one connection record, a frame
    decoder, and an empty write queue — no stack, no thread — which is
    what lets a single domain hold 10k concurrent provers. Replay work
    runs on the fleet pool's domains; verdict completion wakes the loop
    over a self-pipe. When the fleet stream's window is full, reports
    queue at the session layer (loop-local FIFO) so backpressure never
    blocks the loop.

    Sessions are {e windowed}: a peer that greets with [Hello_ex]
    negotiates up to [max_window] rounds in flight and its verdicts are
    pushed as the fleet engine completes them, so the engine never
    idles waiting for a network round-trip. A legacy [Hello] peer gets
    the same machine with a window of 1 and unnumbered frames —
    wire-compatible with single-shot clients. Per-session FIFO verdict
    order is preserved (the fleet stream yields in submission order,
    and the wait queue is FIFO so submission order extends arrival
    order); cross-session order is whatever the engine produces.

    Defenses, all of them counted in {!stats}:
    - hard frame cap and typed decode errors ({!Frame}/{!Codec}) — a
      hostile byte stream closes its own connection, never the gateway;
    - per-message read deadlines (slow-loris: drip-feeding a frame
      header times out no matter how steadily the bytes trickle) — but a
      peer whose every issued challenge is answered and whose verdicts
      are still queued in the engine is {e not} timed out;
    - a {e per-session} token-bucket {!Ratelimit} on challenge issue, so
      one flooding prover exhausts its own bucket, not its neighbours';
    - a per-session window ceiling: [Ready] beyond the granted window
      gets [Busy] and bumps [window_overflow];
    - reports for never-issued or already-answered sequence numbers get
      a typed rejection and bump [bad_seq];
    - a connection ceiling ([max_conns]) answered with [Busy];
    - a bounded per-connection write queue: a peer that requests
      verdicts but never reads them cannot buffer the gateway into the
      ground;
    - challenge freshness per connection via
      {!Dialed_core.Protocol.gate} — replayed or cross-session reports
      are rejected before any replay work is spent on them.

    Verification runs on a {!Dialed_fleet.Fleet.stream} whose bounded
    in-flight window applies backpressure to the sessions. *)

type engine = Evloop
(** The gateway has one connection engine, the readiness loop over
    {!Evloop}. The type and [config.engine] remain, single-valued, so
    configurations that name the engine keep compiling; neither is an
    option. *)

type config = {
  engine : engine;            (** always [Evloop] *)
  max_frame : int;            (** per-frame byte cap (framing layer) *)
  read_deadline : float option;
      (** seconds a peer may take to complete one message *)
  max_conns : int;            (** concurrent connections; excess get Busy *)
  domains : int;              (** verifier pool parallelism *)
  window : int;               (** fleet stream in-flight window *)
  max_window : int;
      (** per-session pipeline ceiling granted to [Hello_ex] peers;
          legacy [Hello] sessions always run with window 1 *)
  rate : float option;
      (** challenges/sec {e per session}; [None] = unlimited *)
  burst : float;              (** rate-limiter bucket size *)
  args : int list;            (** operation arguments issued in requests *)
  session_seed : string;      (** base seed for per-connection gates *)
  memo : Dialed_fleet.Memo.config option;
      (** arm verdict memoization on the fleet stream: the canonical log
          digest is computed incrementally during wire decode
          ({!Dialed_apex.Wire.decode_digested}), so a repeat log skips
          the replay entirely while challenge freshness
          ({!Dialed_core.Protocol.gate}) and the HMAC token check still
          run on every report. [None] (default) = off *)
  plan_cache : Dialed_fleet.Plan.cache option;
      (** the plan cache the operator built this server's plan through,
          if any — the server only reads its counters so {!stats} can
          show plan-cache effectiveness next to the memo's; it never
          inserts into it. [None] (default) = no plan-cache section in
          the stats *)
  lifecycle : Dialed_lifecycle.Lifecycle.t option;
      (** the device registry this gateway enforces. When set, every
          greeting is submitted to {!Dialed_lifecycle.Lifecycle.admit}
          (unregistered peers ride the registry's [allow_anonymous]
          policy), every session frame and every outbound verdict
          re-checks the registry — a revocation landing mid-window cuts
          the session with a typed [Codec.Denied] {e before} the next
          verdict is issued — and accepted verdicts that were actually
          delivered are credited back via [note_attested]. [None]
          (default) = anonymous gateway, wire behavior unchanged. *)
  resolve_plan : (string -> Dialed_fleet.Plan.t option) option;
      (** maps a claimed firmware version (from [Hello_ex]) to the
          verify plan its reports should replay against — typically
          [Plan.find_or_build] through the operator's {!plan_cache}, so
          a staged rollout keeps both versions' plans resident in the
          LRU. [None] result (or no resolver, or no claim): the session
          verifies on the server's default plan. Resolution happens
          once per session at admission. *)
}

val default_config : config
(** 1 MiB frames, 10 s deadline, 64 connections,
    2 domains, stream window 32, session window 32, no rate limit,
    empty args, memo off. *)

type t

type lifecycle_stats = private {
  mutable lc_admitted : int;  (** registered devices admitted to a session *)
  mutable lc_anonymous : int; (** sessions served outside the registry *)
  mutable lc_denied_unknown : int;
  mutable lc_denied_revoked : int;
  mutable lc_denied_quarantined : int;
  mutable lc_denied_stale : int;
  mutable lc_midsession_denials : int;
      (** sessions cut after admission — the revoked-mid-window path *)
  mutable lc_attested : int;  (** accepted verdicts delivered to registered
                                 devices (drives registered → attested) *)
}

type stats = private {
  mutable connections_accepted : int;
  mutable connections_active : int;
  mutable connections_peak : int;
      (** high-water mark of simultaneously held connections — the
          c10k witness: a swarm holding N sessions shows [peak >= N] *)
  mutable sessions_active : int;   (** connections past their [Hello] *)
  mutable frames_rx : int;
  mutable frames_tx : int;
  mutable bytes_rx : int;
  mutable bytes_tx : int;
  mutable requests_issued : int;   (** challenges sent *)
  mutable reports_received : int;
  mutable verdicts_accepted : int;
  mutable verdicts_rejected : int; (** freshness/parse/seq ones included *)
  mutable rate_limited : int;
  mutable window_overflow : int;   (** [Ready] past the granted window *)
  mutable bad_seq : int;     (** reports for unknown/answered sequences *)
  mutable protocol_errors : int;   (** hostile/garbled streams dropped *)
  mutable deadline_timeouts : int;
  verify : Dialed_fleet.Metrics.t;
      (** live {!Dialed_fleet.Fleet.stream_snapshot} (final after stop);
          carries the stream's memo hit/miss/eviction counters when the
          memo is armed *)
  memo : Dialed_fleet.Memo.stats option;
      (** the memo cache's own counters (entries and resident bytes
          included); [None] when the server runs memo-off *)
  plan_cache : Dialed_fleet.Plan.cache_counters option;
      (** counters of the plan cache named in the config, snapshotted at
          {!stats} time; [None] when no cache was handed over *)
  lifecycle : lifecycle_stats option;
      (** lifecycle counters, read at the {e same} loop instant as every
          other counter; [None] on a registry-less server *)
}
(** The gateway's counters, [private]: only [Server] builds or mutates
    them. The event loop counts into one live [stats] and one live
    [lifecycle_stats], hence [mutable]; {!stats} and {!stop} return
    copies taken on the loop, which never change afterwards. *)

val create : ?config:config -> plan:Dialed_fleet.Plan.t ->
  Transport.listener -> t
(** The gateway owns the listener and a private fleet pool/stream from
    [create] until {!stop}. *)

val start : t -> unit
(** Spawn the event loop in a background thread and return. Spawns
    nothing when a stop is already pending. *)

val serve_forever : t -> unit
(** Run the event loop on the calling thread; returns when {!stop} or
    {!request_stop} is called, and at once when one already was. *)

val request_stop : t -> unit
(** Ask the event loop to unwind, without blocking and without taking any
    OCaml lock: safe from a signal handler, even one delivered to the
    thread running {!serve_forever} (where calling {!stop} directly
    would self-deadlock — it waits for a cleanup that thread can never
    reach while suspended in the handler). Wakes the loop, which closes
    the listener and every connection as it unwinds; requested before
    the loop starts, it keeps the loop from starting. Either way, call
    {!stop} afterwards to finish teardown and collect final stats. *)

val stop : t -> stats
(** Wake the event loop and wait for it to close the listener and every
    live connection (when no loop ever ran, close the listener itself),
    close the fleet stream, and return the final stats. Idempotent,
    also across threads: a caller that finds a stop in progress waits
    for it and returns the same final stats. *)

val stats : t -> stats
(** A snapshot, callable mid-traffic from any thread but the loop's own.
    Only the event loop writes the counters, and [stats] reads them
    there: it posts the read to the loop and waits for the loop to reach
    it (with no loop running, it reads them directly). So a snapshot is
    one loop instant. It is internally consistent: a concurrent poller
    can rely on cross-counter invariants (e.g. [verdicts_accepted +
    verdicts_rejected <= reports_received + window_overflow]) holding
    in every observation. It is also fresh: a verdict a prover has
    received is already counted. Called on the loop's own thread (from
    a signal handler that interrupts {!serve_forever}, say) it would
    wait on itself forever; a process that serves on its main thread,
    like the CLI's [serve] and bench/e2e's gateway, reads its stats
    through {!stop} once {!serve_forever} returns. After {!stop},
    [stats] returns the final stats. *)

val pp_stats : Format.formatter -> stats -> unit

val stats_to_json : stats -> string
