(* Single-thread readiness event loop: epoll (Linux) or portable
   poll(2) for fd readiness, a hierarchical timer wheel for the
   gateway's deadline population (thousands of coarse slow-loris
   timers: O(1) arm/cancel, lazy cancellation), a self-pipe for
   cross-thread wakeups, and a posted-thunk queue so verify-pool
   domains and loopback writer threads can hand work to the loop
   without touching loop state themselves.

   Threading contract: [post], [wake] and thunks from [hook_source] are
   safe from any thread; everything else ([watch], [after], [cancel],
   [run]) belongs to the loop thread. *)

type backend = [ `Epoll | `Poll ]

let tick_s = 0.01
let wheel_slots = 256
let wheel_levels = 4
let max_events = 512

type timer = {
  mutable t_live : bool;
  mutable t_fire : unit -> unit; (* [no_fire] once cancelled *)
  mutable t_ticks : int; (* absolute fire tick *)
}

type fd_watch = {
  mutable w_read : (unit -> unit) option;
  mutable w_write : (unit -> unit) option;
}

type t = {
  epfd : Unix.file_descr option;
  watches : (int, fd_watch) Hashtbl.t;
  mutable dirty : bool; (* poll backend: flattened array needs rebuild *)
  mutable pfds : int array;
  mutable pn : int;
  out : int array;
  levels : timer list array array;
  mutable cur_tick : int;
  start : float;
  mutable n_timers : int;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  posted : (unit -> unit) Queue.t;
  posted_m : Mutex.t;
  signalled : bool Atomic.t;
  scratch_buf : bytes;
  shut : bool Atomic.t;
  waking : int Atomic.t; (* wakes between their [shut] check and write *)
}

let scratch t = t.scratch_buf

let mask_of w =
  (match w.w_read with Some _ -> Rawpoll.ev_read | None -> 0)
  lor (match w.w_write with Some _ -> Rawpoll.ev_write | None -> 0)

let watch t fd ~read ~write =
  let key = Rawpoll.int_of_fd fd in
  let mask =
    (match read with Some _ -> Rawpoll.ev_read | None -> 0)
    lor (match write with Some _ -> Rawpoll.ev_write | None -> 0)
  in
  match Hashtbl.find_opt t.watches key with
  | None ->
    if mask <> 0 then begin
      Hashtbl.add t.watches key { w_read = read; w_write = write };
      match t.epfd with
      | Some ep -> Rawpoll.epoll_add ep fd mask
      | None -> t.dirty <- true
    end
  | Some w ->
    if mask = 0 then begin
      Hashtbl.remove t.watches key;
      match t.epfd with
      | Some ep ->
        (* an fd closed before its unwatch was already auto-removed by
           the kernel; the table entry is what matters *)
        (try Rawpoll.epoll_del ep fd
         with Unix.Unix_error ((EBADF | ENOENT), _, _) -> ())
      | None -> t.dirty <- true
    end
    else begin
      let old_mask = mask_of w in
      w.w_read <- read;
      w.w_write <- write;
      if old_mask <> mask then
        match t.epfd with
        | Some ep -> Rawpoll.epoll_mod ep fd mask
        | None -> t.dirty <- true
    end

let unwatch t fd = watch t fd ~read:None ~write:None

(* -------------------------- timer wheel -------------------------- *)

let insert t tm =
  let eff = if tm.t_ticks <= t.cur_tick then t.cur_tick + 1 else tm.t_ticks in
  let delta = eff - t.cur_tick in
  let level =
    if delta < wheel_slots then 0
    else if delta < 1 lsl 16 then 1
    else if delta < 1 lsl 24 then 2
    else 3
  in
  let slot = (eff lsr (8 * level)) land (wheel_slots - 1) in
  t.levels.(level).(slot) <- tm :: t.levels.(level).(slot)

(* The fire tick counts from the clock, not from [cur_tick]: [advance]
   moves [cur_tick] only at the top of an iteration, so after a blocked
   wait or an idle spell it lags the clock by that long, and a delay
   counted from it would fire early by as much. *)
let after t delay fire =
  let due = Unix.gettimeofday () +. delay -. t.start in
  let ticks = int_of_float (ceil (due /. tick_s)) in
  let tm =
    { t_live = true; t_fire = fire; t_ticks = max ticks (t.cur_tick + 1) }
  in
  insert t tm;
  t.n_timers <- t.n_timers + 1;
  tm

let no_fire () = ()

(* The dead timer stays in its wheel slot until the slot comes due, so
   drop the callback now: it may hold a whole connection. *)
let cancel t tm =
  if tm.t_live then begin
    tm.t_live <- false;
    tm.t_fire <- no_fire;
    t.n_timers <- t.n_timers - 1
  end

let rec cascade t level =
  if level < wheel_levels then begin
    let slot = (t.cur_tick lsr (8 * level)) land (wheel_slots - 1) in
    let l = t.levels.(level).(slot) in
    t.levels.(level).(slot) <- [];
    List.iter (fun tm -> if tm.t_live then insert t tm) l;
    if slot = 0 then cascade t (level + 1)
  end

let advance t =
  let now = Unix.gettimeofday () in
  let target = int_of_float ((now -. t.start) /. tick_s) in
  while t.cur_tick < target do
    t.cur_tick <- t.cur_tick + 1;
    if t.cur_tick land (wheel_slots - 1) = 0 then cascade t 1;
    let slot = t.cur_tick land (wheel_slots - 1) in
    let l = t.levels.(0).(slot) in
    t.levels.(0).(slot) <- [];
    List.iter
      (fun tm ->
        if tm.t_live then begin
          if tm.t_ticks <= t.cur_tick then begin
            tm.t_live <- false;
            t.n_timers <- t.n_timers - 1;
            tm.t_fire ()
          end
          else insert t tm (* same slot, later wrap *)
        end)
      l
  done

let next_timeout_ms t =
  Mutex.lock t.posted_m;
  let pending = not (Queue.is_empty t.posted) in
  Mutex.unlock t.posted_m;
  if pending then 0
  else if t.n_timers = 0 then -1
  else begin
    (* nearest possibly-live level-0 slot, or the next wrap boundary
       where higher levels cascade down; ≤ 256 steps either way *)
    let rec scan k =
      let tk = t.cur_tick + k in
      if t.levels.(0).(tk land (wheel_slots - 1)) <> [] then tk
      else if tk land (wheel_slots - 1) = 0 then tk
      else scan (k + 1)
    in
    let tk = scan 1 in
    let fire_at = t.start +. (float_of_int tk *. tick_s) in
    let ms =
      int_of_float (ceil ((fire_at -. Unix.gettimeofday ()) *. 1000.0))
    in
    if ms < 0 then 0 else ms
  end

(* ------------------------ wakeup machinery ----------------------- *)

(* A loopback writer can run a readiness hook it read just before the
   loop's owner detached it and closed the loop, so a wake may arrive
   after [close]. It must not write then: the self-pipe's descriptors
   may be closed, half closed (SIGPIPE) or already reused. [close] marks
   the loop shut and waits out the wakes that passed the check. *)
let wake t =
  Atomic.incr t.waking;
  (if (not (Atomic.get t.shut)) && Atomic.compare_and_set t.signalled false true
   then
     try ignore (Unix.write_substring t.pipe_w "x" 0 1)
     with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ());
  Atomic.decr t.waking

let post t f =
  Mutex.lock t.posted_m;
  Queue.add f t.posted;
  Mutex.unlock t.posted_m;
  wake t

let hook_source t cb =
  let pending = Atomic.make false in
  fun () ->
    if Atomic.compare_and_set pending false true then
      post t (fun () ->
          Atomic.set pending false;
          cb ())

(* Clear [signalled] only after the pipe is empty: a wake landing before
   the clear finds it set and writes nothing, but its thunk is already
   queued and [run_posted] runs before the loop blocks again; one landing
   after the clear writes a byte that wakes the next wait. Clearing first
   would let the read swallow a byte written in between and leave the
   flag set for good, silencing every later wake. *)
let drain_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.pipe_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ();
  Atomic.set t.signalled false

let run_posted t =
  Mutex.lock t.posted_m;
  let batch = Queue.copy t.posted in
  Queue.clear t.posted;
  Mutex.unlock t.posted_m;
  Queue.iter (fun f -> f ()) batch

(* --------------------------- the loop ---------------------------- *)

let rebuild t =
  let n = Hashtbl.length t.watches in
  if Array.length t.pfds < 2 * n then t.pfds <- Array.make ((2 * n) + 64) 0;
  let i = ref 0 in
  Hashtbl.iter
    (fun key w ->
      t.pfds.(2 * !i) <- key;
      t.pfds.((2 * !i) + 1) <- mask_of w;
      incr i)
    t.watches;
  t.pn <- n;
  t.dirty <- false

let wait t timeout_ms =
  match t.epfd with
  | Some ep -> Rawpoll.epoll_wait ep timeout_ms t.out
  | None ->
    if t.dirty then rebuild t;
    Rawpoll.poll t.pfds t.pn timeout_ms t.out

let dispatch t n =
  for i = 0 to n - 1 do
    let key = t.out.(2 * i) and bits = t.out.((2 * i) + 1) in
    (* re-look-up before each callback: an earlier callback in this
       batch (or the read callback itself) may have unwatched the fd *)
    (if bits land Rawpoll.ev_read <> 0 then
       match Hashtbl.find_opt t.watches key with
       | Some { w_read = Some f; _ } -> f ()
       | _ -> ());
    if bits land Rawpoll.ev_write <> 0 then
      match Hashtbl.find_opt t.watches key with
      | Some { w_write = Some f; _ } -> f ()
      | _ -> ()
  done

let run t ~stop =
  while not (stop ()) do
    advance t;
    run_posted t;
    (* a timer or posted thunk may have just satisfied [stop]; blocking
       now (possibly forever, with no timers left) would miss it *)
    if not (stop ()) then begin
      let timeout = next_timeout_ms t in
      let n = wait t timeout in
      dispatch t n
    end
  done

let create ?backend () =
  let be =
    match backend with
    | Some b -> b
    | None -> if Rawpoll.has_epoll () then `Epoll else `Poll
  in
  (match be with
  | `Epoll when not (Rawpoll.has_epoll ()) ->
    invalid_arg "Evloop.create: epoll unavailable on this platform"
  | _ -> ());
  let epfd = match be with `Epoll -> Some (Rawpoll.epoll_create ()) | `Poll -> None in
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let t =
    { epfd;
      watches = Hashtbl.create 64;
      dirty = true;
      pfds = Array.make 128 0;
      pn = 0;
      out = Array.make (2 * max_events) 0;
      levels =
        Array.init wheel_levels (fun _ -> Array.make wheel_slots []);
      cur_tick = 0;
      start = Unix.gettimeofday ();
      n_timers = 0;
      pipe_r; pipe_w;
      posted = Queue.create ();
      posted_m = Mutex.create ();
      signalled = Atomic.make false;
      scratch_buf = Bytes.create 65536;
      shut = Atomic.make false;
      waking = Atomic.make 0 }
  in
  watch t pipe_r ~read:(Some (fun () -> drain_pipe t)) ~write:None;
  t

let close t =
  if not (Atomic.exchange t.shut true) then begin
    while Atomic.get t.waking > 0 do Thread.yield () done;
    (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
    match t.epfd with
    | Some ep -> (try Unix.close ep with Unix.Unix_error _ -> ())
    | None -> ()
  end
