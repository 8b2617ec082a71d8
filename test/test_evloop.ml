(* The readiness event loop in isolation: timer-wheel ordering and
   cancellation, hook-source deduplication, cross-thread posting into a
   blocked loop, and fd watches — under both poller backends where the
   platform provides epoll. *)

module N = Dialed_net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_loop backend f =
  let loop = N.Evloop.create ~backend () in
  Fun.protect ~finally:(fun () -> N.Evloop.close loop) (fun () -> f loop)

(* Run the loop until [cond] holds, failing the test after [deadline]
   seconds so a loop bug can never hang the suite. *)
let run_until ?(deadline = 5.0) loop cond =
  let t0 = Unix.gettimeofday () in
  let expired () = Unix.gettimeofday () -. t0 > deadline in
  (* a coarse repeating tick bounds every wait so expiry is observed *)
  let rec tick () =
    if not (cond () || expired ()) then
      ignore (N.Evloop.after loop 0.05 tick : N.Evloop.timer)
  in
  tick ();
  N.Evloop.run loop ~stop:(fun () -> cond () || expired ());
  if not (cond ()) then Alcotest.fail "run_until: condition never held"

(* ------------------------------------------------------------- *)
(* Timers.                                                         *)

let test_timer_order backend () =
  with_loop backend (fun loop ->
      let fired = ref [] in
      let t0 = Unix.gettimeofday () in
      let arm tag delay =
        ignore
          (N.Evloop.after loop delay (fun () ->
               fired := (tag, Unix.gettimeofday () -. t0) :: !fired)
           : N.Evloop.timer)
      in
      arm "c" 0.09;
      arm "a" 0.03;
      arm "b" 0.06;
      run_until loop (fun () -> List.length !fired = 3);
      let order = List.rev_map fst !fired in
      check_bool "fired in deadline order" true (order = [ "a"; "b"; "c" ]);
      (* never early: each timer waited at least its full delay *)
      List.iter
        (fun (tag, el) ->
           let d =
             match tag with "a" -> 0.03 | "b" -> 0.06 | _ -> 0.09
           in
           if el < d -. 0.001 then
             Alcotest.failf "timer %s fired %.4fs early" tag (d -. el))
        !fired)

let test_timer_cancel backend () =
  with_loop backend (fun loop ->
      let fired = ref [] in
      let arm tag delay =
        N.Evloop.after loop delay (fun () -> fired := tag :: !fired)
      in
      let a = arm "a" 0.02 in
      let _b = arm "b" 0.04 in
      let c = arm "c" 0.06 in
      N.Evloop.cancel loop a;
      N.Evloop.cancel loop c;
      (* double-cancel is a no-op, not a crash or a count underflow *)
      N.Evloop.cancel loop c;
      run_until loop (fun () -> !fired <> []);
      Thread.yield ();
      check_bool "only the live timer fired" true (!fired = [ "b" ]))

(* A cancelled timer stays in its wheel slot until the slot comes due;
   it must not keep its callback's captures alive until then (the
   gateway's deadline timers capture whole connections). *)
let test_cancel_releases_callback backend () =
  with_loop backend (fun loop ->
      let weak = Weak.create 1 in
      let arm () =
        let payload = Bytes.make 64 'x' in
        Weak.set weak 0 (Some payload);
        N.Evloop.after loop 60.0 (fun () -> ignore (Bytes.length payload))
      in
      let tm = (Sys.opaque_identity arm) () in
      N.Evloop.cancel loop tm;
      Gc.full_major ();
      check_bool "captured value collected" false (Weak.check weak 0);
      ignore (Sys.opaque_identity tm : N.Evloop.timer))

(* A delay past the level-0 horizon (256 ticks = 2.56 s) exercises the
   wheel cascade: the timer parks in level 1 and must still fire on
   time, not at the wrap. *)
let test_timer_cascade () =
  with_loop `Poll (fun loop ->
      let fired = ref false in
      let t0 = Unix.gettimeofday () in
      ignore
        (N.Evloop.after loop 2.7 (fun () -> fired := true) : N.Evloop.timer);
      run_until ~deadline:8.0 loop (fun () -> !fired);
      let el = Unix.gettimeofday () -. t0 in
      check_bool "cascaded timer not early" true (el >= 2.7 -. 0.001);
      check_bool "cascaded timer not wildly late" true (el < 4.0))

(* [after] counts its delay from the call. The loop advances its
   clock only at the top of an iteration, so on a loop that sat idle,
   or in a read callback after a long blocked wait, that clock lags by
   the idle or blocked time; a delay counted from it fires early by as
   much, or at once. *)
let lag_s = 0.3
let delay_s = 0.2

let check_not_early ~armed ~fired =
  let el = fired -. armed in
  if el < delay_s -. 0.001 then
    Alcotest.failf "timer fired %.3fs after arming, delay %.3fs" el delay_s

let test_timer_after_idle backend () =
  with_loop backend (fun loop ->
      Thread.delay lag_s;
      let armed = Unix.gettimeofday () in
      let fired = ref Float.nan in
      ignore
        (N.Evloop.after loop delay_s (fun () -> fired := Unix.gettimeofday ())
         : N.Evloop.timer);
      run_until loop (fun () -> not (Float.is_nan !fired));
      check_not_early ~armed ~fired:!fired)

let test_timer_after_blocked_wait backend () =
  with_loop backend (fun loop ->
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () -> Unix.close r; Unix.close w)
        (fun () ->
           let armed = ref Float.nan and fired = ref Float.nan in
           let expired = ref false in
           N.Evloop.watch loop r
             ~read:
               (Some
                  (fun () ->
                    ignore (Unix.read r (Bytes.create 1) 0 1 : int);
                    N.Evloop.unwatch loop r;
                    armed := Unix.gettimeofday ();
                    ignore
                      (N.Evloop.after loop delay_s (fun () ->
                           fired := Unix.gettimeofday ())
                       : N.Evloop.timer);
                    ignore
                      (N.Evloop.after loop 5.0 (fun () -> expired := true)
                       : N.Evloop.timer)))
             ~write:None;
           (* no timer is armed: the loop blocks in its wait until the
              writer's byte arrives *)
           let writer =
             Thread.create
               (fun () ->
                  Thread.delay lag_s;
                  ignore (Unix.write_substring w "x" 0 1 : int))
               ()
           in
           N.Evloop.run loop ~stop:(fun () ->
               !expired || not (Float.is_nan !fired));
           Thread.join writer;
           if Float.is_nan !fired then Alcotest.fail "timer never fired";
           check_not_early ~armed:!armed ~fired:!fired))

(* ------------------------------------------------------------- *)
(* Cross-thread machinery.                                         *)

let test_hook_source_dedup backend () =
  with_loop backend (fun loop ->
      let calls = ref 0 in
      let thunk = N.Evloop.hook_source loop (fun () -> incr calls) in
      (* burst of readiness signals before the loop looks: one callback *)
      for _ = 1 to 5 do thunk () done;
      run_until loop (fun () -> !calls >= 1);
      check_int "burst coalesced to one callback" 1 !calls;
      (* re-arms after delivery: a later signal fires again *)
      thunk ();
      thunk ();
      run_until loop (fun () -> !calls >= 2);
      check_int "second burst coalesced too" 2 !calls)

let test_cross_thread_post backend () =
  with_loop backend (fun loop ->
      let landed = ref false in
      (* the loop blocks with no timers armed; only the poster's wake
         can get the thunk delivered *)
      let poster =
        Thread.create
          (fun () ->
             Thread.delay 0.05;
             N.Evloop.post loop (fun () -> landed := true))
          ()
      in
      N.Evloop.run loop ~stop:(fun () -> !landed);
      Thread.join poster;
      check_bool "posted thunk ran on the loop" true !landed)

(* Regression: the loop's pipe drain used to clear the wake flag before
   reading the self-pipe. A wake landing in between had its byte
   swallowed and left the flag set, so every later wake did nothing.
   Posters race the loop's drains with no timer armed: a lost wake
   strands their thunks until the watchdog kicks the loop at the
   deadline, through a watched pipe of its own. *)
let test_concurrent_posts_all_run backend () =
  with_loop backend (fun loop ->
      let posters = 4 and per_poster = 2_000 in
      let total = posters * per_poster in
      let ran = ref 0 in (* touched on the loop thread only *)
      let finished = Atomic.make false and expired = Atomic.make false in
      let kick_r, kick_w = Unix.pipe ~cloexec:true () in
      let drain_kick () =
        ignore (Unix.read kick_r (Bytes.create 1) 0 1 : int)
      in
      N.Evloop.watch loop kick_r ~read:(Some drain_kick) ~write:None;
      let watchdog =
        Thread.create
          (fun () ->
             let t0 = Unix.gettimeofday () in
             while
               (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < 10.0
             do
               Thread.delay 0.01
             done;
             if not (Atomic.get finished) then begin
               Atomic.set expired true;
               ignore (Unix.write_substring kick_w "x" 0 1 : int)
             end)
          ()
      in
      let poster () =
        for i = 1 to per_poster do
          N.Evloop.post loop (fun () -> incr ran);
          if i mod 8 = 0 then Thread.yield ()
        done
      in
      let threads = List.init posters (fun _ -> Thread.create poster ()) in
      N.Evloop.run loop ~stop:(fun () -> !ran = total || Atomic.get expired);
      Atomic.set finished true;
      List.iter Thread.join threads;
      Thread.join watchdog;
      N.Evloop.unwatch loop kick_r;
      Unix.close kick_r;
      Unix.close kick_w;
      check_bool "every thunk ran before the deadline" false
        (Atomic.get expired);
      check_int "thunks run" total !ran)

(* ------------------------------------------------------------- *)
(* Fd watches.                                                     *)

let test_fd_watch backend () =
  with_loop backend (fun loop ->
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          (try Unix.close w with Unix.Unix_error _ -> ()))
        (fun () ->
           let got = Buffer.create 8 in
           let buf = Bytes.create 64 in
           N.Evloop.watch loop r
             ~read:
               (Some
                  (fun () ->
                    match Unix.read r buf 0 64 with
                    | n when n > 0 ->
                      Buffer.add_subbytes got buf 0 n
                    | _ -> ()
                    | exception
                        Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()))
             ~write:None;
           (* data written from another thread wakes the watch *)
           let writer =
             Thread.create
               (fun () ->
                  Thread.delay 0.03;
                  ignore (Unix.write_substring w "ping" 0 4))
               ()
           in
           run_until loop (fun () -> Buffer.length got >= 4);
           Thread.join writer;
           check_bool "read callback saw the bytes" true
             (Buffer.contents got = "ping");
           (* unwatch: later writes no longer reach the callback *)
           N.Evloop.unwatch loop r;
           ignore (Unix.write_substring w "more" 0 4);
           let parked = ref false in
           ignore
             (N.Evloop.after loop 0.1 (fun () -> parked := true)
              : N.Evloop.timer);
           run_until loop (fun () -> !parked);
           check_bool "unwatched fd stayed silent" true
             (Buffer.contents got = "ping")))

let test_write_interest backend () =
  with_loop backend (fun loop ->
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          (try Unix.close w with Unix.Unix_error _ -> ()))
        (fun () ->
           (* an empty pipe is immediately writable: write interest
              fires without any peer action *)
           let writable = ref false in
           N.Evloop.watch loop w ~read:None
             ~write:
               (Some
                  (fun () ->
                    writable := true;
                    N.Evloop.unwatch loop w));
           run_until loop (fun () -> !writable);
           check_bool "write readiness delivered" true !writable))

(* ------------------------------------------------------------- *)

let backends =
  ("poll", `Poll)
  :: (if N.Rawpoll.has_epoll () then [ ("epoll", `Epoll) ] else [])

(* A wake can land after [close]: a loopback writer may run a hook it
   read just before the loop's owner detached it. It must not write to
   the loop's old pipe, whose descriptors the next pipe opened reuses
   (the poll backend, with no epoll descriptor in between, makes the
   reuse exact). *)
let test_wake_after_close () =
  let loop = N.Evloop.create ~backend:`Poll () in
  N.Evloop.close loop;
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  N.Evloop.post loop ignore;
  N.Evloop.wake loop;
  let stray =
    match Unix.read r (Bytes.create 1) 0 1 with
    | n -> n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> 0
  in
  Unix.close r;
  Unix.close w;
  check_int "no byte reached a reused descriptor" 0 stray

let suites =
  [ ("net-evloop",
     List.concat_map
       (fun (tag, backend) ->
          let t name f =
            Alcotest.test_case (name ^ " [" ^ tag ^ "]") `Quick (f backend)
          in
          [ t "timers fire in deadline order" test_timer_order;
            t "cancelled timers never fire" test_timer_cancel;
            t "cancel releases the callback" test_cancel_releases_callback;
            t "timer armed on an idle loop is not early" test_timer_after_idle;
            t "timer armed after a blocked wait is not early"
              test_timer_after_blocked_wait;
            t "hook source coalesces bursts" test_hook_source_dedup;
            t "cross-thread post wakes a blocked loop" test_cross_thread_post;
            t "concurrent posts all run" test_concurrent_posts_all_run;
            t "fd read watch" test_fd_watch;
            t "fd write interest" test_write_interest ])
       backends
     @ [ Alcotest.test_case "timer cascades across wheel levels" `Slow
           test_timer_cascade;
         Alcotest.test_case "wake after close writes nothing" `Quick
           test_wake_after_close ]) ]
