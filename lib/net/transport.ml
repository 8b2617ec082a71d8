exception Timeout
exception Closed

type readiness = Fd of Unix.file_descr | Hook

type conn = {
  recv_impl : deadline:float option -> bytes -> int -> int -> int;
  send_impl : string -> unit;
  close_impl : unit -> unit;
  peer_name : string;
  readiness : readiness option;
  set_nonblock_impl : unit -> unit;
  try_recv_impl : bytes -> int -> int -> [ `Data of int | `Eof | `Again ];
  try_send_impl : string -> int -> int -> [ `Sent of int | `Again ];
  on_readable_impl : (unit -> unit) option -> unit;
}

let recv conn ?deadline buf pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Transport.recv: slice out of bounds";
  if len = 0 then 0 else conn.recv_impl ~deadline buf pos len

let send conn s = conn.send_impl s
let close conn = conn.close_impl ()
let peer conn = conn.peer_name
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
  listener_readiness : readiness option;
  try_accept_impl : unit -> conn option;
  on_acceptable_impl : (unit -> unit) option -> unit;
}

let shutdown l = l.shutdown_impl ()
let listener_readiness l = l.listener_readiness
let try_accept l = l.try_accept_impl ()
let on_acceptable l hook = l.on_acceptable_impl hook

(* ---------------------------------------------------------------- *)
(* Deadline timer for in-memory pipes. The stdlib [Condition] has no
   timed wait, so deadline reads park on the pipe's condition variable
   and register here; a single lazily-started timer thread sleeps in
   [poll] on a self-pipe until the earliest registered deadline and
   broadcasts the parked reader's condvar when it fires. Readers that
   finish early cancel their entry (lazily pruned). This replaces the
   old 2 ms [Thread.delay] polling loop.                             *)

module Timer = struct
  type entry = {
    t_deadline : float; (* absolute, Unix.gettimeofday scale *)
    t_m : Mutex.t;
    t_c : Condition.t;
    mutable t_live : bool;
  }

  let m = Mutex.create ()
  let entries : entry list ref = ref []
  let wake_pipe : (Unix.file_descr * Unix.file_descr) option ref = ref None
  let started = ref false

  let wake () =
    match !wake_pipe with
    | None -> ()
    | Some (_, w) -> (
      try ignore (Unix.write_substring w "x" 0 1)
      with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ())

  let drain r =
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read r buf 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()

  let run r =
    let rec loop () =
      Mutex.lock m;
      entries := List.filter (fun e -> e.t_live) !entries;
      let next =
        List.fold_left (fun acc e -> min acc e.t_deadline) infinity !entries
      in
      Mutex.unlock m;
      let timeout_ms =
        if next = infinity then -1
        else
          let rem = next -. Unix.gettimeofday () in
          if rem <= 0.0 then 0
          else
            let ms = int_of_float (ceil (rem *. 1000.0)) in
            if ms < 1 then 1 else ms
      in
      if timeout_ms <> 0 then
        ignore (Rawpoll.poll_one r Rawpoll.ev_read timeout_ms);
      drain r;
      let now = Unix.gettimeofday () in
      let expired = ref [] in
      Mutex.lock m;
      entries :=
        List.filter
          (fun e ->
            if e.t_live && e.t_deadline <= now then begin
              expired := e :: !expired;
              false
            end
            else e.t_live)
          !entries;
      Mutex.unlock m;
      (* broadcast outside the registry lock: the timer never holds the
         registry lock and a pipe lock together, so readers may register
         while holding their pipe lock without deadlock *)
      List.iter
        (fun e ->
          Mutex.lock e.t_m;
          Condition.broadcast e.t_c;
          Mutex.unlock e.t_m)
        !expired;
      loop ()
    in
    loop ()

  let ensure_started () =
    if not !started then begin
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      wake_pipe := Some (r, w);
      started := true;
      ignore (Thread.create run r)
    end

  let register ~deadline ~mu ~cond =
    let e = { t_deadline = deadline; t_m = mu; t_c = cond; t_live = true } in
    Mutex.lock m;
    ensure_started ();
    entries := e :: !entries;
    Mutex.unlock m;
    wake ();
    e

  let cancel e =
    Mutex.lock m;
    e.t_live <- false;
    Mutex.unlock m
end

(* ---------------------------------------------------------------- *)
(* In-memory loopback: two unidirectional pipes. Writers append string
   chunks; the reader consumes the head chunk at an offset. Deadline
   reads block on the pipe's condition variable with a {!Timer} entry
   to bound the wait; an optional readiness hook lets an event loop
   observe writes without blocking a thread here at all.             *)

type pipe = {
  m : Mutex.t;
  c : Condition.t;
  chunks : string Queue.t;
  mutable head_off : int; (* consumed prefix of the head chunk *)
  mutable closed : bool;
  mutable on_ready : (unit -> unit) option;
}

let pipe () =
  { m = Mutex.create (); c = Condition.create (); chunks = Queue.create ();
    head_off = 0; closed = false; on_ready = None }

let run_hook = function Some f -> f () | None -> ()

let pipe_close p =
  Mutex.lock p.m;
  p.closed <- true;
  Condition.broadcast p.c;
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
    Condition.signal p.c;
    let h = p.on_ready in
    Mutex.unlock p.m;
    run_hook h
  end

let pipe_set_hook p h =
  Mutex.lock p.m;
  p.on_ready <- h;
  Mutex.unlock p.m

(* caller holds p.m and has checked the queue is non-empty *)
let pipe_take_locked p buf pos len =
  let head = Queue.peek p.chunks in
  let avail = String.length head - p.head_off in
  let n = min avail len in
  Bytes.blit_string head p.head_off buf pos n;
  if n = avail then begin
    ignore (Queue.pop p.chunks);
    p.head_off <- 0
  end
  else p.head_off <- p.head_off + n;
  n

let pipe_read p ~deadline buf pos len =
  let t0 = Unix.gettimeofday () in
  let abs = Option.map (fun d -> t0 +. d) deadline in
  let reg = ref None in
  let cancel_reg () = match !reg with Some e -> Timer.cancel e | None -> () in
  Mutex.lock p.m;
  let rec wait () =
    if not (Queue.is_empty p.chunks) then begin
      let n = pipe_take_locked p buf pos len in
      cancel_reg ();
      Mutex.unlock p.m;
      n
    end
    else if p.closed then begin
      cancel_reg ();
      Mutex.unlock p.m;
      0
    end
    else
      match abs with
      | None ->
        Condition.wait p.c p.m;
        wait ()
      | Some a ->
        if Unix.gettimeofday () >= a then begin
          cancel_reg ();
          Mutex.unlock p.m;
          raise Timeout
        end
        else begin
          if !reg = None then
            reg := Some (Timer.register ~deadline:a ~mu:p.m ~cond:p.c);
          Condition.wait p.c p.m;
          wait ()
        end
  in
  wait ()

let pipe_try_read p buf pos len =
  Mutex.lock p.m;
  if not (Queue.is_empty p.chunks) then begin
    let n = pipe_take_locked p buf pos len in
    Mutex.unlock p.m;
    `Data n
  end
  else if p.closed then begin
    Mutex.unlock p.m;
    `Eof
  end
  else begin
    Mutex.unlock p.m;
    `Again
  end

let loopback_conn ~peer_name rx tx =
  { recv_impl = (fun ~deadline buf pos len -> pipe_read rx ~deadline buf pos len);
    send_impl = (fun s -> pipe_write tx s);
    close_impl = (fun () -> pipe_close rx; pipe_close tx);
    peer_name;
    readiness = Some Hook;
    set_nonblock_impl = (fun () -> ());
    try_recv_impl = (fun buf pos len -> pipe_try_read rx buf pos len);
    try_send_impl =
      (fun s pos len ->
        pipe_write tx (String.sub s pos len);
        `Sent len);
    on_readable_impl = (fun h -> pipe_set_hook rx h) }

let loopback () =
  let a_to_b = pipe () and b_to_a = pipe () in
  ( loopback_conn ~peer_name:"loopback:b" b_to_a a_to_b,
    loopback_conn ~peer_name:"loopback:a" a_to_b b_to_a )

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
  ( { shutdown_impl; listener_readiness = Some Hook; try_accept_impl;
      on_acceptable_impl },
    dial )

(* ---------------------------------------------------------------- *)
(* Unix sockets. Deadlines ride on [poll(2)] (no FD_SETSIZE ceiling,
   unlike the [Unix.select] this used to use); EOF-like errno values
   surface as end-of-stream rather than exceptions, because a hostile
   peer resetting the connection is normal gateway input.            *)

(* A write to a socket whose peer has gone raises SIGPIPE, whose default
   action kills the process: a gateway would die with every session it
   holds because one peer reset its connection. Ignored, the write fails
   with EPIPE instead, which surfaces below as [Closed]. *)
let ignore_sigpipe =
  lazy (if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

let of_fd ~peer_name fd =
  Lazy.force ignore_sigpipe;
  let closed = ref false in
  let recv_impl ~deadline buf pos len =
    (match deadline with
     | None -> ()
     | Some d ->
       if d <= 0.0 then raise Timeout;
       let abs = Unix.gettimeofday () +. d in
       if Rawpoll.wait_fd fd Rawpoll.ev_read ~deadline:abs = 0 then
         raise Timeout);
    try Unix.read fd buf pos len with
    | Unix.Unix_error ((ECONNRESET | EPIPE | ENOTCONN | EBADF), _, _) -> 0
  in
  let send_impl s =
    let n = String.length s in
    let sent = ref 0 in
    (try
       while !sent < n do
         match Unix.write_substring fd s !sent (n - !sent) with
         | k -> sent := !sent + k
         | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
           (* blocking send on an fd someone set non-blocking: wait out
              the kernel buffer rather than spin *)
           ignore (Rawpoll.poll_one fd Rawpoll.ev_write (-1))
       done
     with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN), _, _) ->
       raise Closed)
  in
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
  { recv_impl; send_impl; close_impl; peer_name;
    readiness = Some (Fd fd);
    set_nonblock_impl = (fun () -> Unix.set_nonblock fd);
    try_recv_impl; try_send_impl;
    on_readable_impl =
      (fun _ -> invalid_arg "Transport.on_readable: fd-backed connection") }

let socketpair () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  (of_fd ~peer_name:"socketpair:b" a, of_fd ~peer_name:"socketpair:a" b)

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
  let wrap_accepted (peer_fd, addr) =
    (* framed request/report messages are small; Nagle + delayed ACK
       would add ~40 ms per round-trip and flatten any pipelining *)
    (try Unix.setsockopt peer_fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    let peer_name =
      match addr with
      | Unix.ADDR_INET (a, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
      | Unix.ADDR_UNIX s -> s
    in
    of_fd ~peer_name peer_fd
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
  ( { shutdown_impl; listener_readiness = Some (Fd fd); try_accept_impl;
      on_acceptable_impl =
        (fun _ -> invalid_arg "Transport.on_acceptable: fd-backed listener") },
    bound_port )

let tcp_connect ~host ~port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
  of_fd ~peer_name:(Printf.sprintf "%s:%d" host port) fd
