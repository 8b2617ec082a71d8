(** Verdict memoization: a verified-log cache that skips the replay.

    Millions of deployed devices run the same instrumented binary, and
    well-behaved runs of a sensor loop traverse a small set of CF/I-Log
    shapes — so the expensive half of verification (the abstract
    execution) keeps recomputing the same answer. This cache keys {e
    replay} verdicts by [(plan memo namespace, canonical log digest)]
    (see {!Dialed_core.Verifier.plan_memo_ns} and
    {!Dialed_apex.Pox.log_digest}): on a hit, only the per-session
    authenticity check ({!Dialed_core.Verifier.precheck} — HMAC token,
    layout, audit gate) runs and the cached accept/reject verdict plus
    findings come back without touching the CPU emulator.

    {b What is cached, and why it is sound.} The replay outcome is a
    pure function of the plan and the log material covered by the
    digest (the five layout words plus the OR bytes). Both acceptance
    {e and} rejection at the replay stage (log divergence, shadow-stack
    and OOB findings, policy violations, malformed logs) are pure in
    that sense, so negative results from the replay {e are} cached.
    Rejections that depend on per-session material — a bad or stale
    token, a wrong layout, the audit gate — happen in [precheck], which
    memoizing callers run on every report, and are {e never} cached: a
    replayed report with a stale challenge fails its token check before
    the memo is ever consulted.

    The structure is an array of mutex stripes, each one {!Lru}
    weighted by estimated resident bytes, so the cache is bounded both
    by entry count and by bytes. It is safe to share between the domain
    pool's workers, which look it up, and any thread that reads its
    {!stats}, such as a gateway's [Server.stats] caller. Concurrent
    lookups of the same missing key deduplicate under the {!Lru} rule,
    the one {!Plan.cache} follows: one caller replays, the rest wait on
    the in-flight computation and count as hits, with no double
    counting. *)

type config = {
  max_entries : int;  (** total across shards (per-shard: ceil/shards) *)
  max_bytes : int;    (** estimated resident bytes, total across shards *)
  shards : int;       (** mutex stripes; lookups hash across them *)
}

val default_config : config
(** 4096 entries, 8 MiB, 8 shards. *)

type t
(** A memo cache; safe to share across domains and systhreads. *)

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] if any bound is non-positive. Per-shard
    budgets are [ceil(total/shards)] with a floor of one entry, so the
    global bounds hold to within one entry per shard; a single entry
    larger than a shard's byte budget stays resident alone. *)

val config : t -> config

type entry = {
  e_accepted : bool;
  e_findings : Dialed_core.Verifier.finding list;
  e_steps : int;
      (** steps the original (fresh) replay executed — returned verbatim
          on hits so memo-on and memo-off verdicts are bit-identical *)
}

type handle
(** A cache scoped to one plan's memo namespace. Create once per
    batch/stream (alongside the plan itself) and reuse for every
    report. *)

val handle : t -> ns:string -> handle
(** [ns] must be the plan's {!Dialed_core.Verifier.plan_memo_ns}. Plans
    with different namespaces never share entries even in one cache. *)

val find_or_replay :
  handle -> digest:string -> (unit -> entry) -> entry * [ `Hit | `Miss ]
(** [find_or_replay h ~digest replay] returns the cached entry for
    [digest] (the report's {!Dialed_core.Verifier.log_digest}) or runs
    [replay] once, caches its result, and returns it. Concurrent calls
    for the same missing digest run [replay] once: later arrivals block
    on the in-flight computation and return [`Hit] (waiters are hits —
    exactly one [`Miss] is counted per actual replay). If [replay]
    raises, the exception propagates to the caller that ran it, nothing
    is cached, and waiters retry (one becomes the new replayer).

    The caller must have passed {!Dialed_core.Verifier.precheck} before
    consulting the memo — authenticity is never cached. *)

type stats = {
  hits : int;
  misses : int;       (** lookups that actually ran a replay *)
  evictions : int;
  entries : int;      (** resident now, across shards *)
  bytes : int;        (** estimated resident bytes, across shards *)
}

val stats : t -> stats
(** Aggregated across shards; each shard is read under its own lock, so
    the snapshot is per-shard-consistent (counters never go backwards,
    but cross-shard sums may interleave with concurrent traffic). *)

val hit_rate : stats -> float
(** [hits / (hits + misses)]; [0.] when no lookups happened. *)

val stats_to_json : stats -> string
val pp_stats : Format.formatter -> stats -> unit
