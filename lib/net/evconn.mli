(** Non-blocking framed connection pump for {!Evloop} drivers (the
    gateway and the prover {!Client} sessions).

    One value per connection: readiness events drain the transport
    through the poisoned incremental {!Frame} decoder and surface
    {!Codec} messages via [on_msg]; {!send} queues encoded frames in a
    bounded write queue flushed as the peer accepts bytes.

    Handlers own the connection's fate: [on_eof] and [on_error] do
    {e not} close, and every handler must — call {!close}, or
    {!close_after_flush} to let queued replies drain first. Until it
    does, they fire again: on an fd, readiness is level-triggered, so
    an unclosed connection's EOF or error is seen on every loop
    iteration. All callbacks and all functions here run on the loop
    thread. *)

type error =
  [ `Eof_mid_frame  (** peer vanished with a partial frame buffered *)
  | `Frame of Frame.error
  | `Codec of Codec.error
  | `Wqueue_overflow  (** peer not reading; queued bytes exceed the cap *)
  | `Send_closed  (** write raced the peer's disappearance *) ]

val error_to_string : error -> string

type t

val attach :
  loop:Evloop.t ->
  ?cap:int ->
  ?wq_max:int ->
  on_msg:(t -> Codec.msg -> unit) ->
  on_eof:(t -> unit) ->
  on_error:(t -> error -> unit) ->
  ?on_traffic:(rx:int -> tx:int -> unit) ->
  Transport.conn ->
  t
(** Register the connection with the loop and start pumping. [cap] is
    the per-frame size cap (default {!Frame.default_cap}); [wq_max]
    bounds queued unsent bytes (default 1 MiB) — exceeding it raises
    [`Wqueue_overflow] via [on_error] instead of buffering without
    bound for a peer that stopped reading. [on_traffic] observes byte
    deltas for stats. *)

val send : t -> Codec.msg -> unit
(** Encode, frame, queue and opportunistically flush. Dropped silently
    after {!close} (the peer is gone). *)

val close : t -> unit
(** Unregister from the loop and close the transport. Idempotent. *)

val close_after_flush : t -> unit
(** {!close} once the write queue drains (immediately if empty).
    Reading stops at once — a draining connection is condemned, so the
    peer's further messages are never surfaced. *)

val is_closed : t -> bool
