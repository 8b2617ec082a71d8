(* Thin bindings over poll(2)/epoll(7) C stubs. Event bits are shared
   with dialed_poll_stubs.c: 1 = readable, 2 = writable. *)

let ev_read = 1
let ev_write = 2

external has_epoll : unit -> bool = "dialed_has_epoll"
external int_of_fd : Unix.file_descr -> int = "%identity"
external epoll_create : unit -> Unix.file_descr = "dialed_epoll_create"

external epoll_ctl_raw :
  Unix.file_descr -> int -> Unix.file_descr -> int -> unit = "dialed_epoll_ctl"

let epoll_add ep fd mask = epoll_ctl_raw ep 0 fd mask
let epoll_mod ep fd mask = epoll_ctl_raw ep 1 fd mask
let epoll_del ep fd = epoll_ctl_raw ep 2 fd 0

external epoll_wait :
  Unix.file_descr -> int -> int array -> int = "dialed_epoll_wait"

external poll : int array -> int -> int -> int array -> int = "dialed_poll"
