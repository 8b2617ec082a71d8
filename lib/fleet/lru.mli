(** A mutex-guarded LRU cache that computes each missing value once.

    The cache is bounded by entry count and by the summed weight of its
    entries. Inserting evicts least-recently-used entries until both
    bounds hold again; the entry just inserted is never the victim, so
    one entry heavier than the whole weight budget stays resident
    alone.

    Concurrent lookups of one missing key deduplicate: the first caller
    computes the value outside the lock and counts a miss; later
    callers wait for it and count as hits. A computation that raises
    caches nothing: the exception reaches the caller that ran it, and
    the waiters retry (one of them becomes the new computer). So
    exactly one miss is counted per computation actually run.

    Recency is a doubly-linked list threaded through the entries: a hit
    moves its entry to the front, and eviction takes the back, so
    neither depends on the number of entries, and a hit allocates
    nothing.

    Safe to share across domains and systhreads. {!Plan.cache} is one
    [Lru]; each {!Memo} stripe is one. *)

type 'v t

val create :
  max_entries:int -> ?max_weight:int -> ?weight:(string -> 'v -> int) ->
  unit -> 'v t
(** [weight key v] is charged against [max_weight] while [v] is
    resident. The defaults (weight 0, no weight bound) give a cache
    bounded by count alone. The caller checks that the bounds are
    positive. *)

val find_or_compute :
  'v t -> string -> (unit -> 'v) -> 'v * [ `Hit | `Miss ]
(** The cached value for the key, or [compute ()] run once and cached.
    A hit refreshes the entry's recency. *)

type counters = {
  hits : int;
  misses : int;     (** lookups that ran the computation *)
  evictions : int;
  entries : int;    (** resident now *)
  weight : int;     (** summed weight of the resident entries *)
}

val counters : 'v t -> counters
(** One snapshot, taken under the cache lock. *)
