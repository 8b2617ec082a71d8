(** Byte-stream transports for the gateway: real Unix sockets, and an
    in-memory loopback for tests and in-process benches (never for
    deployment).

    The gateway and prover only ever see this small connection surface,
    so every gateway test runs over the loopback (no ports, no kernel
    buffers) as well as over TCP, while deployment uses TCP or a
    [socketpair].

    There is one driving style, readiness: non-blocking {!try_recv} and
    {!try_send}, plus either a pollable file descriptor ({!Fd}) or a
    writer-invoked callback ({!Hook}) that tells an event loop when to
    read. The gateway and the prover {!Client} both drive connections
    this way through {!Evconn}.

    Loopback connections and listeners are internally locked and safe to
    drive from multiple threads, and start no thread of their own;
    Unix-socket connections carry the usual file-descriptor caveats (one
    reader at a time).

    The first socket connection a process opens sets SIGPIPE to be
    ignored, so a write to a peer that has gone raises {!Closed} instead
    of killing the process. *)

exception Closed
(** Write on (or accept from) an endpoint that was closed. *)

type conn

val close : conn -> unit
(** Idempotent. The peer's pending and future reads see end-of-stream. *)

(** {2 Readiness (event-loop driving)} *)

type readiness =
  | Fd of Unix.file_descr  (** pollable: register with poll/epoll *)
  | Hook  (** in-memory: writer invokes a registered callback *)

val readiness : conn -> readiness
(** How an event loop can learn this connection is readable. *)

val set_nonblock : conn -> unit
(** Put the underlying endpoint in non-blocking mode so {!try_recv} and
    {!try_send} return [`Again] instead of blocking. No-op for
    loopback. *)

val try_recv : conn -> bytes -> int -> int -> [ `Data of int | `Eof | `Again ]
(** Non-blocking read: [`Data n] for [n > 0] bytes, [`Eof] at
    end-of-stream (including peer reset), [`Again] when nothing is
    available right now. *)

val try_send : conn -> string -> int -> int -> [ `Sent of int | `Again ]
(** Non-blocking write of [s[pos..pos+len)]: [`Sent n] for [n] bytes
    accepted ([n < len] is a partial write), [`Again] when the kernel
    buffer is full. Raises {!Closed} when the peer is gone. Loopback
    sends always complete. *)

val on_readable : conn -> (unit -> unit) option -> unit
(** Register (or with [None] clear) the readability callback of a
    {!Hook} connection; the peer's writes and close invoke it (outside
    any transport lock). Data queued {e before} registration does not
    re-fire the hook — poll the connection once with {!try_recv} right
    after registering. Raises [Invalid_argument] on {!Fd}
    connections. *)

type listener

val shutdown : listener -> unit
(** Stop accepting. Idempotent. *)

val listener_readiness : listener -> readiness
(** How an event loop can learn this listener has pending
    connections. *)

val try_accept : listener -> conn option
(** Non-blocking accept: [None] when no connection is pending (the
    first call puts an fd-backed listener in non-blocking mode).
    Whether an accepted socket inherits that mode is up to the system;
    an event loop calls {!set_nonblock} itself. Raises {!Closed} after
    {!shutdown}. *)

val on_acceptable : listener -> (unit -> unit) option -> unit
(** Register the pending-connection callback of a {!Hook} listener;
    {!shutdown} also fires it. Same once-after-registration caveat as
    {!on_readable}. Raises [Invalid_argument] on {!Fd} listeners. *)

(** {2 In-memory loopback} *)

val loopback : unit -> conn * conn
(** A connected pair of in-memory byte streams. *)

val loopback_listener : unit -> listener * (unit -> conn)
(** A loopback acceptor and its dial function: each [dial ()] yields the
    client end and queues the server end for {!try_accept}. [dial]
    raises {!Closed} after {!shutdown}. *)

(** {2 Unix sockets} *)

val socketpair : unit -> conn * conn
(** A connected [Unix.socketpair] (AF_UNIX, stream). *)

val tcp_listener : ?backlog:int -> ?host:string -> port:int -> unit -> listener * int
(** Bind and listen on [host:port] (host defaults to 127.0.0.1); returns
    the listener and the actual bound port — pass [~port:0] for an
    ephemeral one. *)

val tcp_connect : host:string -> port:int -> unit -> conn
