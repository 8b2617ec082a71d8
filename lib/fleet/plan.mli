(** Shareable per-firmware verification plans, plus a keyed cache.

    A plan bundles {!Dialed_core.Verifier.plan} (the immutable replay
    invariants: image bytes, expected-ER hash, resolved annotation table,
    layout) with the firmware's {!Dialed_core.Pipeline.fingerprint}. Plans
    are built once per firmware version and shared, read-only, by every
    worker domain of a fleet batch.

    The cache amortizes plan construction for a verifier serving a fleet
    that mixes several firmware versions: lookups key on
    [(firmware fingerprint, device key)]. *)

type t

val of_built :
  ?key:string -> ?policies:Dialed_core.Verifier.policy list ->
  ?max_steps:int -> ?audit:Dialed_staticcheck.Audit.config ->
  Dialed_core.Pipeline.built -> t
(** Build a plan directly (no cache). Key defaults to
    {!Dialed_apex.Device.default_key}. [audit] arms the static gating
    stage (see {!Dialed_core.Verifier.plan}). *)

val audit_report : t -> Dialed_staticcheck.Report.t option
(** The static audit captured at plan-build time, when armed. *)

val vplan : t -> Dialed_core.Verifier.plan
val fingerprint : t -> string

(** {2 Keyed plan cache} *)

type cache
(** Mutex-guarded; safe to share across domains. *)

val cache : ?capacity:int -> unit -> cache
(** LRU-evicting cache holding at most [capacity] (default 16) plans: a
    hit refreshes the entry's recency, so a hot firmware fingerprint is
    never evicted in favor of cold ones. Raises [Invalid_argument] on a
    non-positive capacity. *)

val find_or_build :
  cache -> ?key:string -> ?policies:Dialed_core.Verifier.policy list ->
  ?max_steps:int -> ?audit:Dialed_staticcheck.Audit.config ->
  Dialed_core.Pipeline.built -> t
(** Return the cached plan for [(fingerprint built, key)] or build and
    insert one. Concurrent lookups of the same missing key build once:
    later arrivals wait for the in-flight build and count as hits. If
    the build raises, the exception propagates to the builder and the
    waiters retry (one of them becomes the new builder). Note:
    [policies], [max_steps] and [audit] only take effect when the entry
    is first built — a hit returns the plan exactly as first
    constructed, so a fleet batch runs the (comparatively expensive)
    static audit once per distinct firmware fingerprint, not once per
    report. Fleets that need per-batch policies should use {!of_built}. *)

val cache_stats : cache -> int * int
(** [(hits, misses)] so far. A miss is a lookup that started a build —
    waiting on someone else's in-flight build is a hit. *)

val cache_audits : cache -> int
(** Static audits this cache actually ran to completion — at most one
    per miss with [audit] armed; hits (including deduplicated concurrent
    lookups) never re-audit, and a build that raises counts nothing. *)

val cache_size : cache -> int
(** Plans currently resident. *)

type cache_counters = {
  cc_hits : int;
  cc_misses : int;         (** lookups that started a build *)
  cc_evictions : int;
  cc_resident : int;       (** plans resident now *)
  cc_audits : int;         (** static audits actually executed *)
}
(** One consistent snapshot of a cache's counters, taken under the cache
    lock — the same waiters-are-hits accounting as {!cache_stats}. The
    gateway embeds this in its stats so operators can watch plan-cache
    effectiveness live next to the verdict-memo counters. *)

val cache_counters : cache -> cache_counters

val cache_counters_to_json : cache_counters -> string

val pp_cache_counters : Format.formatter -> cache_counters -> unit
