(** Bindings over [poll(2)] and (on Linux) [epoll(7)].

    [Unix.select] caps file descriptors at [FD_SETSIZE] (1024); these
    primitives have no such ceiling and are the substrate of {!Evloop},
    the one event loop every connection is driven by. *)

val ev_read : int
(** Event bit: fd is readable (or in error/hangup — folded into read so
    the read path observes EOF the usual way). *)

val ev_write : int
(** Event bit: fd is writable. *)

val has_epoll : unit -> bool
(** Whether the epoll backend is available (Linux). *)

val int_of_fd : Unix.file_descr -> int
(** The raw integer behind a Unix fd (identity on Unix systems) — used
    as a hashtable key by the event loop. *)

val epoll_create : unit -> Unix.file_descr
(** Create an epoll instance (close-on-exec).
    @raise Invalid_argument when epoll is unavailable. *)

val epoll_add : Unix.file_descr -> Unix.file_descr -> int -> unit
(** [epoll_add ep fd mask] registers [fd] with interest [mask]
    (level-triggered). *)

val epoll_mod : Unix.file_descr -> Unix.file_descr -> int -> unit
(** Change the interest mask of a registered fd. *)

val epoll_del : Unix.file_descr -> Unix.file_descr -> unit
(** Unregister an fd. *)

val epoll_wait : Unix.file_descr -> int -> int array -> int
(** [epoll_wait ep timeout_ms out] fills [out] with (fd, events) pairs
    and returns the pair count. [timeout_ms = -1] blocks forever. A
    signal-interrupted wait returns 0. *)

val poll : int array -> int -> int -> int array -> int
(** [poll fds nfds timeout_ms out]: [fds] holds (fd, interest) pairs of
    which the first [nfds] are live; ready (fd, events) pairs are
    written to [out]; returns the ready count. Portable backend. *)
