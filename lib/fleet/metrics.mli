(** Aggregate counters for one fleet verification batch. *)

type t = {
  domains : int;          (** parallelism of the pool the reports ran on *)
  batch_size : int;       (** reports submitted *)
  accepted : int;
  rejected : int;
  replay_steps : int;     (** total instructions replayed across the batch *)
  wall_seconds : float;   (** wall-clock time of the verification phase *)
  rejects_by_kind : (string * int) list;
      (** rejected reports bucketed by the {!Dialed_core.Verifier.finding_kind}
          of their first (decisive) finding, sorted by kind *)
  memo_hits : int;
      (** verdict-memo hits among this batch's reports (0 when the batch
          ran memo-off) *)
  memo_misses : int;
      (** reports in this batch that actually replayed under the memo *)
  memo_evictions : int;
      (** the memo's {e cumulative} eviction count at snapshot time —
          the cache outlives any one batch, so unlike hits/misses this
          is not per-batch *)
}

val reports_per_sec : t -> float
val replay_steps_per_sec : t -> float

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One self-contained JSON object — the bench trajectory point. *)
