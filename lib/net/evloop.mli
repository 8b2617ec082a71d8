(** Single-thread readiness event loop.

    One loop thread multiplexes every gateway connection: fd readiness
    via epoll (Linux) or portable [poll(2)], deadlines via a
    hierarchical timer wheel (4 × 256 slots, 10 ms ticks — O(1)
    arm/cancel for a c10k gateway's slow-loris deadlines: one timer
    per connection, which a frame moves forward lazily instead of
    re-arming), and cross-thread handoff via a self-pipe plus a
    posted-thunk queue.

    {b Threading contract}: {!post}, {!wake} and the thunks returned by
    {!hook_source} may be called from any thread; everything else —
    {!watch}, {!after}, {!cancel}, {!run}, {!close} — belongs to the
    single thread that runs the loop. *)

type t

type backend = [ `Epoll | `Poll ]

val create : ?backend:backend -> unit -> t
(** Create a loop. [backend] defaults to [`Epoll] when available, else
    [`Poll]; forcing [`Epoll] on a platform without it raises
    [Invalid_argument]. *)

val close : t -> unit
(** Release the loop's file descriptors (self-pipe, epoll instance).
    Idempotent. Only call once {!run} has returned. Later {!post}s and
    {!wake}s from other threads are harmless no-ops. *)

(** {2 Fd readiness (level-triggered)} *)

val watch :
  t ->
  Unix.file_descr ->
  read:(unit -> unit) option ->
  write:(unit -> unit) option ->
  unit
(** Set (or replace) the readiness callbacks for [fd]; [None]/[None]
    unregisters it. Level-triggered: a callback fires on every loop
    iteration while the condition holds, so consume until [`Again] or
    drop interest. Unwatch {e before} closing the fd. *)

val unwatch : t -> Unix.file_descr -> unit

(** {2 Timers} *)

type timer

val after : t -> float -> (unit -> unit) -> timer
(** [after t seconds fire] arms a one-shot timer. Resolution is one
    wheel tick (10 ms). The delay counts from this call, even when the
    loop has not run for a while (a timer armed from a readiness
    callback after a long blocked wait, or on a loop that sat idle):
    timers never fire early, and fire at most one tick late under a
    responsive loop. *)

val cancel : t -> timer -> unit
(** O(1) lazy cancel; idempotent. A cancelled timer never fires, and
    its callback (with everything it captures) is released at once, not
    when its wheel slot comes due. *)

(** {2 Cross-thread wakeups} *)

val post : t -> (unit -> unit) -> unit
(** Queue a thunk to run on the loop thread (next iteration) and wake
    the loop. Thread-safe. *)

val wake : t -> unit
(** Interrupt a blocked {!run} iteration. Thread-safe. *)

val hook_source : t -> (unit -> unit) -> unit -> unit
(** [hook_source t cb] returns a thread-safe thunk suitable for
    {!Transport.on_readable}: invoking it schedules [cb] on the loop
    thread, deduplicating bursts (many invocations before the loop gets
    to run collapse into one [cb] call). *)

(** {2 Running} *)

val run : t -> stop:(unit -> bool) -> unit
(** Drive the loop until [stop ()] is true. [stop] is re-checked every
    iteration; pair an externally-set flag with {!wake} to exit
    promptly. Each iteration: fire due timers, run posted thunks, then
    block for readiness until the next timer is due. *)

val scratch : t -> bytes
(** A 64 KiB read buffer shared by everything on the loop thread (all
    I/O happens there, so one buffer serves every connection). *)
