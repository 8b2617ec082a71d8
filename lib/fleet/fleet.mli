(** Batch and streaming verification: replay many attestation reports
    against one shared {!Plan} across OCaml 5 domains.

    The paper's verifier handles one report at a time; at fleet scale
    (thousands of devices running the same firmware) verifier-side replay
    throughput is the bottleneck. This engine shares the per-firmware
    setup — assembled image, expected-ER bytes, resolved annotation
    table — through an immutable plan and spreads the per-report replays
    over the worker domains of a {!Pool}: a long-lived one the caller
    passes in (workers and their scratch arenas persist across batches),
    or a private one made and shut down by the call. There is one
    engine, the {!stream}: {!verify_batch} is a stream opened, fed every
    report and closed.

    Every replaying domain reuses a per-domain
    {!Dialed_core.Verifier.scratch} arena via domain-local storage, so
    steady-state verification allocates nothing proportional to the
    sandbox: the 64 KiB replay memory is reset page-wise between
    reports instead of being reallocated and re-imaged.

    Verdicts are deterministic: the result is independent of the domain
    count, scheduling, and scratch reuse, because every replay only
    reads the shared plan and writes its own result slot. *)

type verdict = {
  device_id : string;
  accepted : bool;
  findings : Dialed_core.Verifier.finding list;
  replay_steps : int;   (** instructions the replay executed *)
}

type summary = {
  verdicts : verdict list;  (** one per submitted report, in input order *)
  metrics : Metrics.t;
}

val verify_batch :
  ?pool:Pool.t -> ?domains:int -> ?memo:Memo.t ->
  Plan.t -> (string * Dialed_apex.Pox.report) list -> summary
(** [verify_batch ~pool plan batch] is {!stream} + {!stream_submit} of
    every [(device_id, report)] pair + {!stream_close}: the replays run
    on the pool's domains (the caller helps whenever the in-flight
    window is full), and the pool's workers stay warm for the next
    batch. Nothing is polled, so the summary holds every verdict, in
    input order. Without [pool], the call runs on a private pool of
    [min domains (List.length batch)] domains (at least 1) and shuts it
    down before returning; [domains] defaults to 1 — strictly serial,
    no spawning — and a one-report batch never spawns. Raises
    [Invalid_argument] on non-positive [domains], and when [pool]
    refuses a report (see {!stream_submit}).

    Guidance: replay is CPU-bound and shares no mutable state, so a pool
    of [Domain.recommended_domain_count ()] is the sensible maximum;
    beyond physical cores it only adds scheduling noise.

    [memo] arms verdict memoization: every report still pays the
    per-session {!Dialed_core.Verifier.precheck} (HMAC token, layout,
    audit gate), but the replay runs only on the first report with a
    given {!Dialed_core.Verifier.log_digest} — repeats return the cached
    verdict, findings and step count, bit-identical to a fresh replay
    (pinned by [test_memo]). The memo outlives the batch: pass the same
    [Memo.t] to successive batches and the entries carry over. The
    batch's own hit/miss counts (and the memo's cumulative evictions)
    land in {!Metrics.t}. *)

val rejects_by_kind : verdict list -> (string * int) list
(** Histogram of rejected verdicts by the
    {!Dialed_core.Verifier.finding_kind} of their first (decisive)
    finding, sorted by kind. A rejected verdict with no findings at all
    is counted under ["no-finding"] rather than dropped. A stream
    buckets each verdict the same way as it lands, so this is exactly
    the {!Metrics.t.rejects_by_kind} that {!stream_snapshot} and
    {!stream_close} report. *)

(** {2 Streaming verification}

    Continuous attestation traffic: submit reports as they arrive,
    collect verdicts as replays complete. A bounded in-flight window
    applies backpressure to the submitter (who helps drain the pool
    rather than blocking idle). *)

type stream

val stream :
  ?domains:int -> ?pool:Pool.t -> ?window:int -> ?memo:Memo.t ->
  Plan.t -> stream
(** Open a stream over [plan]. With [pool], replays run on it (and the
    pool survives the stream); otherwise a private pool of [domains]
    (default {!Domain.recommended_domain_count}) is created and shut
    down by {!stream_close}. [window] (default [max 16 (4 * domains)])
    bounds the submitted-but-unfinished report count. [memo] arms
    verdict memoization as described at {!verify_batch}; the memo
    survives the stream. *)

val stream_submit :
  ?digest:string -> ?plan:Plan.t -> stream ->
  string -> Dialed_apex.Pox.report -> unit
(** Submit one report. Blocks (productively: the caller steals pool
    jobs) while the in-flight window is full. Raises [Invalid_argument]
    on a closed stream, and when the pool refuses the job (it has
    workers and has been shut down); a refused report is not counted,
    so {!stream_close} still returns.
    [digest], when the caller already computed the
    report's canonical log digest (e.g. incrementally during wire
    decode via {!Dialed_apex.Wire.decode_digested}), skips the memo
    path's own {!Dialed_core.Verifier.log_digest} pass; ignored on a
    memo-less stream. Passing a digest that is {e not} the report's own
    log digest corrupts the memo — never pass one from another report.

    [plan] routes {e this} report to a different verify plan than the
    one the stream was opened on — how one stream (and one FIFO verdict
    order) serves a fleet running several firmware versions at once
    (staged rollout: stable + canary in flight together). The report is
    judged by exactly that plan: its firmware, device key, step budget
    and policies. Under the memo it shares verdicts only with reports
    judged by a plan of the same
    {!Dialed_core.Verifier.plan_memo_ns}. Routing costs a field read.
    The stream keeps [plan] only until the report's verdict lands;
    plan-cache residency and eviction stay with {!Plan.cache}. *)

val stream_try_submit :
  ?digest:string -> ?plan:Plan.t -> stream ->
  string -> Dialed_apex.Pox.report -> bool
(** Non-blocking {!stream_submit}: [false] when the in-flight window is
    full (nothing was submitted — retry after progress). The event-loop
    gateway uses this so a full verify window queues reports at the
    session layer instead of blocking the loop thread. On a 0-worker
    pool the replay runs inline (as in {!stream_submit}) and the result
    is always [true]. Raises [Invalid_argument] when {!stream_submit}
    would. *)

val stream_on_progress : stream -> (unit -> unit) option -> unit
(** Register (or clear) a callback invoked after {e each} verdict lands,
    from the worker domain that produced it, outside the stream's lock
    — safe to call back into the stream. The gateway points this at
    its event loop's self-pipe wakeup, so verdict completion re-arms
    the loop, which then collects with {!stream_poll}. *)

val stream_pending : stream -> int
(** Reports submitted whose verdicts have not landed yet. *)

val stream_snapshot : stream -> Metrics.t
(** Live, non-destructive counters: submitted / accepted / rejected /
    replay steps / rejects-by-kind / memo hit-miss-eviction counters so
    far, with [wall_seconds] measured from stream open to now. In-flight
    reports are counted in [batch_size] but in neither verdict bucket.
    The gateway surfaces this from its stats endpoint while the stream
    keeps running. *)

val stream_poll : stream -> verdict list
(** Verdicts completed since the last poll, in submission order (an
    in-order prefix: a still-running replay blocks later, already
    finished ones). Never blocks. *)

val stream_close : stream -> summary
(** Drain everything in flight (helping the pool), shut the pool down if
    the stream owns it, and return the summary. Its [metrics] cover
    {e all} submitted reports, taken from the running aggregates
    {!stream_snapshot} reads; its [verdicts] are only those never handed
    out by {!stream_poll}, in submission order. A stream keeps no verdict
    once it has been polled, so a long-lived polled stream holds memory
    proportional to its unpolled backlog, not to its lifetime.
    [wall_seconds] spans stream open to drain. *)

val pp_summary : Format.formatter -> summary -> unit
(** Metrics plus one line per rejected device. *)
