exception Closed

type readiness = Fd of Unix.file_descr | Hook

type conn = {
  close_impl : unit -> unit;
  readiness : readiness;
  set_nonblock_impl : unit -> unit;
  try_recv_impl : bytes -> int -> int -> [ `Data of int | `Eof | `Again ];
  try_send_impl : string -> int -> int -> [ `Sent of int | `Again ];
  on_readable_impl : (unit -> unit) option -> unit;
}

let close conn = conn.close_impl ()
let readiness conn = conn.readiness
let set_nonblock conn = conn.set_nonblock_impl ()

let try_recv conn buf pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Transport.try_recv: slice out of bounds";
  if len = 0 then `Data 0 else conn.try_recv_impl buf pos len

let try_send conn s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Transport.try_send: slice out of bounds";
  if len = 0 then `Sent 0 else conn.try_send_impl s pos len

let on_readable conn hook = conn.on_readable_impl hook

type listener = {
  shutdown_impl : unit -> unit;
  listener_readiness : readiness;
  try_accept_impl : unit -> conn option;
  on_acceptable_impl : (unit -> unit) option -> unit;
}

let shutdown l = l.shutdown_impl ()
let listener_readiness l = l.listener_readiness
let try_accept l = l.try_accept_impl ()
let on_acceptable l hook = l.on_acceptable_impl hook

(* ---------------------------------------------------------------- *)
(* In-memory loopback: two unidirectional pipes. Writers append string
   chunks; the reader consumes the head chunk at an offset. A readiness
   hook lets the reader's event loop observe writes and closes.       *)

type pipe = {
  m : Mutex.t;
  chunks : string Queue.t;
  mutable head_off : int; (* consumed prefix of the head chunk *)
  mutable closed : bool;
  mutable on_ready : (unit -> unit) option;
}

let pipe () =
  { m = Mutex.create (); chunks = Queue.create ();
    head_off = 0; closed = false; on_ready = None }

let run_hook = function Some f -> f () | None -> ()

let pipe_close p =
  Mutex.lock p.m;
  p.closed <- true;
  let h = p.on_ready in
  Mutex.unlock p.m;
  run_hook h

let pipe_write p s =
  if String.length s > 0 then begin
    Mutex.lock p.m;
    if p.closed then begin
      Mutex.unlock p.m;
      raise Closed
    end;
    Queue.add s p.chunks;
    let h = p.on_ready in
    Mutex.unlock p.m;
    run_hook h
  end

let pipe_set_hook p h =
  Mutex.lock p.m;
  p.on_ready <- h;
  Mutex.unlock p.m

let pipe_try_read p buf pos len =
  Mutex.lock p.m;
  let r =
    match Queue.peek_opt p.chunks with
    | Some head ->
      let avail = String.length head - p.head_off in
      let n = min avail len in
      Bytes.blit_string head p.head_off buf pos n;
      if n = avail then begin
        ignore (Queue.pop p.chunks);
        p.head_off <- 0
      end
      else p.head_off <- p.head_off + n;
      `Data n
    | None -> if p.closed then `Eof else `Again
  in
  Mutex.unlock p.m;
  r

let loopback_conn rx tx =
  { close_impl = (fun () -> pipe_close rx; pipe_close tx);
    readiness = Hook;
    set_nonblock_impl = (fun () -> ());
    try_recv_impl = (fun buf pos len -> pipe_try_read rx buf pos len);
    try_send_impl =
      (fun s pos len ->
        pipe_write tx (String.sub s pos len);
        `Sent len);
    on_readable_impl = (fun h -> pipe_set_hook rx h) }

let loopback () =
  let a_to_b = pipe () and b_to_a = pipe () in
  (loopback_conn b_to_a a_to_b, loopback_conn a_to_b b_to_a)

let loopback_listener () =
  let m = Mutex.create () in
  let backlog : conn Queue.t = Queue.create () in
  let closed = ref false in
  let hook : (unit -> unit) option ref = ref None in
  let try_accept_impl () =
    Mutex.lock m;
    match Queue.take_opt backlog with
    | Some conn -> Mutex.unlock m; Some conn
    | None ->
      let was_closed = !closed in
      Mutex.unlock m;
      if was_closed then raise Closed else None
  in
  let shutdown_impl () =
    Mutex.lock m;
    closed := true;
    let h = !hook in
    Mutex.unlock m;
    run_hook h
  in
  let on_acceptable_impl h =
    Mutex.lock m;
    hook := h;
    Mutex.unlock m
  in
  let dial () =
    let client_end, server_end = loopback () in
    Mutex.lock m;
    if !closed then begin
      Mutex.unlock m;
      raise Closed
    end;
    Queue.add server_end backlog;
    let h = !hook in
    Mutex.unlock m;
    run_hook h;
    client_end
  in
  ( { shutdown_impl; listener_readiness = Hook; try_accept_impl;
      on_acceptable_impl },
    dial )

(* ---------------------------------------------------------------- *)
(* Unix sockets. EOF-like errno values surface as end-of-stream rather
   than exceptions, because a hostile peer resetting the connection is
   normal gateway input.                                             *)

(* A write to a socket whose peer has gone raises SIGPIPE, whose default
   action kills the process: a gateway would die with every session it
   holds because one peer reset its connection. Ignored, the write fails
   with EPIPE instead, which surfaces below as [Closed]. *)
let ignore_sigpipe =
  lazy (if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

let of_fd fd =
  Lazy.force ignore_sigpipe;
  let closed = ref false in
  let close_impl () =
    if not !closed then begin
      closed := true;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  let try_recv_impl buf pos len =
    match Unix.read fd buf pos len with
    | 0 -> `Eof
    | n -> `Data n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      `Again
    | exception Unix.Unix_error ((ECONNRESET | EPIPE | ENOTCONN | EBADF), _, _)
      -> `Eof
  in
  let try_send_impl s pos len =
    match Unix.write_substring fd s pos len with
    | n -> `Sent n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      `Again
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN), _, _)
      -> raise Closed
  in
  { close_impl;
    readiness = Fd fd;
    set_nonblock_impl = (fun () -> Unix.set_nonblock fd);
    try_recv_impl; try_send_impl;
    on_readable_impl =
      (fun _ -> invalid_arg "Transport.on_readable: fd-backed connection") }

let socketpair () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  (of_fd a, of_fd b)

let tcp_listener ?(backlog = 16) ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  (try Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string host, port))
   with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
  Unix.listen fd backlog;
  let bound_port =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> port
  in
  let closed = ref false in
  let wrap_accepted (peer_fd, _) =
    (* framed request/report messages are small; Nagle + delayed ACK
       would add ~40 ms per round-trip and flatten any pipelining *)
    (try Unix.setsockopt peer_fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    of_fd peer_fd
  in
  let nonblock_set = ref false in
  let try_accept_impl () =
    if not !nonblock_set then begin
      Unix.set_nonblock fd;
      nonblock_set := true
    end;
    match Unix.accept fd with
    | accepted -> Some (wrap_accepted accepted)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> None
    | exception Unix.Unix_error (ECONNABORTED, _, _) when not !closed -> None
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _)
      when !closed -> raise Closed
  in
  let shutdown_impl () =
    if not !closed then begin
      closed := true;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  ( { shutdown_impl; listener_readiness = Fd fd; try_accept_impl;
      on_acceptable_impl =
        (fun _ -> invalid_arg "Transport.on_acceptable: fd-backed listener") },
    bound_port )

let tcp_connect ~host ~port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
  of_fd fd
