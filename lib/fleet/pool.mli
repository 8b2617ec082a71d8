(** Long-lived pool of verification worker domains.

    [Fleet.verify_batch] originally spawned fresh domains per call;
    [Domain.spawn] costs milliseconds and every live domain participates
    in OCaml 5's stop-the-world minor collections, so per-call spawning
    made parallel batches {e slower} than serial on small batches. A
    pool amortizes both costs: workers are spawned once (lazily, on the
    first job) and parked on a condition variable between batches, and
    each worker keeps its per-domain scratch arena warm across batches.

    Jobs are opaque thunks on one FIFO queue; several submitters may
    share a pool, each tracking completion of its own jobs (a
    [Fleet.stream] counts its in-flight reports). A submitter helps
    drain the queue with {!try_run_one} while it waits, so a pool of
    [domains = n] spawns only [n - 1] domains, and [domains = 1] spawns
    none: its user runs every job inline, with no queue cost on the
    replay path. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] prepares a pool applying [domains]-way
    parallelism (default {!Domain.recommended_domain_count}). No domain
    is spawned until the first job arrives. Raises [Invalid_argument]
    when [domains < 1]. *)

val domains : t -> int
(** Total parallelism, including the submitting domain. *)

val workers : t -> int
(** Worker domains the pool spawns ([domains t - 1]); [0] means jobs
    only ever run on the calling domain. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue one job; spawns the workers on first use. The job runs on an
    arbitrary pool domain (or on a caller of {!try_run_one}). Raises
    [Invalid_argument] after {!shutdown}. *)

val try_run_one : t -> bool
(** Steal and run one queued job on the calling domain; [false] when the
    queue is empty. Lets a producer (the streaming submitter) help when
    it would otherwise block. *)

val shutdown : t -> unit
(** Stop accepting jobs, let the workers finish what is queued, and join
    them. Idempotent. Subsequent {!submit} calls raise. *)
