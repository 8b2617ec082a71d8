(* The load driver: one thread, at most [Workload.connections] TCP
   connections, speaking the gateway's wire protocol directly with
   Frame/Codec over plain Unix sockets. Every verdict is checked
   against what its round's seeded kind demands.

   The measured window is recorded in bins of about a second, with both
   processes' CPU clocks and the host's steal time read at every bin
   edge, so a run's results show when a shared host slowed part of it. *)

module A = Dialed_apex
module N = Dialed_net
module W = Workload

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let frame msg = N.Frame.encode (N.Codec.encode msg)

type round = {
  r_kind : W.kind;
  r_shape : int;
  r_due : int;              (* open loop: when it was due, ns *)
  mutable r_sent : int;     (* Report_seq written *)
  mutable r_frame : string; (* the Report_seq frame, for capture *)
}

type session = {
  s_id : int;
  s_device : string;
  s_fd : Unix.file_descr;
  s_dec : N.Frame.decoder;
  s_t0 : int;                        (* connect started *)
  s_hello : string;                  (* the Hello_ex frame sent *)
  s_out : Buffer.t;                  (* frames to write at the next flush *)
  mutable s_stamp : (round * bool) list;  (* written at the next flush;
                                             [true]: a Report, else Ready *)
  mutable s_open : bool;             (* Welcome received *)
  mutable s_bye : bool;              (* Bye sent, awaiting the close *)
  mutable s_granted : int;
  mutable s_started : int;           (* rounds begun (Ready sent) *)
  mutable s_done : int;              (* rounds concluded *)
  s_awaiting : round Queue.t;        (* Ready sent, no Request_seq yet *)
  s_by_seq : (int, round) Hashtbl.t; (* Report sent, no verdict yet *)
  mutable s_last : int;              (* last verdict, ns *)
  mutable s_active : int;            (* last frame from the gateway, ns *)
}

type slot = {
  mutable sess : session option;
  backlog : round Queue.t;           (* open loop: due, not yet begun *)
}

(* One measured round, with its exact bytes, for the traced replay. *)
type captured = {
  c_session : int;
  c_device : string;
  c_hello : string;
  c_kind : W.kind;
  c_shape : int;
  c_report : string;
  c_accepted : bool;
  c_findings : (string * string) list;
}

type bin = {
  secs : float;
  rounds : int;                 (* verdicts that landed in the bin *)
  sessions : int;               (* sessions whose last verdict landed *)
  round_ms : float array;
  session_ms : float array;
  gw_cpu_s : float;             (* gateway utime+stime over the bin *)
  drv_cpu_s : float;
  steal_s : float;              (* CPU time the hypervisor took *)
}

type result = {
  bins : bin array;             (* the measured window, in order *)
  attempted : int;              (* every round begun, all phases *)
  failed : int;
  wrong : int;                  (* verdicts that contradict the round *)
  kinds : (string * int * int) list;  (* verdict kind, expected, seen *)
  accepted : int;               (* verdicts, all phases *)
  rejected : int;
  rss_mb : float;               (* gateway peak RSS at the window's end *)
  connect_us : float array;
  late_ms : float array;
  captured : captured array;
}

type acc = {
  mutable a_rounds : int;
  mutable a_sessions : int;
  mutable a_round_ms : float list;
  mutable a_session_ms : float list;
}

let run (w : W.t) ~seed ~port ~gw_pid ~warmup ~seconds ~capture =
  let built = Dialed_apps.Apps.build w.W.app in
  let prover = W.prover w ~seed built in
  let devs = W.devices ~seed in
  let tr = W.traffic w ~seed in
  let sched = W.schedule w ~seed in
  let cap_rng = W.rng ~seed 5 in
  let ready_frame = frame N.Codec.Ready in
  let bye_frame = frame N.Codec.Bye in
  let slots =
    Array.init W.connections (fun _ -> { sess = None; backlog = Queue.create () })
  in
  let ns s = int_of_float (s *. 1e9) in
  let nbins = max 1 (int_of_float seconds) in
  let bin_ns = ns seconds / nbins in
  let t_start = now_ns () in
  let t_w = t_start + ns warmup in
  let t_e = t_w + (nbins * bin_ns) in
  (* bin boundaries as the loop reached them, with gateway CPU, driver
     CPU and host steal, in seconds *)
  let drv_cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  let stamps = Array.make (nbins + 1) 0 in
  let clocks = Array.make (nbins + 1) (0.0, 0.0, 0.0) in
  let stamped = ref 0 in
  let cur_bin () = if !stamped >= 1 && !stamped <= nbins then !stamped - 1 else -1 in
  let accs =
    Array.init nbins (fun _ ->
        { a_rounds = 0; a_sessions = 0; a_round_ms = []; a_session_ms = [] })
  in
  let rss = ref 0.0 in
  let stopping = ref false in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let accepted = ref 0 and rejected = ref 0 in
  let kinds = Hashtbl.create 4 in
  let count_kind k ~expected ~seen =
    let e, s = Option.value (Hashtbl.find_opt kinds k) ~default:(0, 0) in
    Hashtbl.replace kinds k (e + expected, s + seen)
  in
  let connect_us = ref [] and late_ms = ref [] in
  let reservoir = Array.make (max capture 1) None and seen = ref 0 in
  let next_session = ref 0 in
  let next_due = ref t_start in
  let next_round_id = ref 0 in
  let buf = Bytes.create 65536 in
  (* an open-loop round is judged from when it was due, in its due bin *)
  let due_bin r =
    if r.r_due < t_w || r.r_due >= t_e then -1 else (r.r_due - t_w) / bin_ns
  in
  let new_round due =
    let kind, shape = W.next_round tr in
    incr next_round_id;
    { r_kind = kind; r_shape = shape; r_due = due; r_sent = 0; r_frame = "" }
  in
  let alive slot s = match slot.sess with Some s' -> s' == s | None -> false in
  let close_session slot s =
    (try Unix.close s.s_fd with Unix.Unix_error _ -> ());
    slot.sess <- None
  in
  (* every round the session had begun is lost; open-loop rounds still
     in the slot's backlog wait for the next session *)
  let fail_session slot s why =
    let lost = s.s_started - s.s_done in
    failed := !failed + lost;
    Printf.eprintf "e2e: session %d failed (%s), %d rounds lost\n%!" s.s_id why
      lost;
    close_session slot s
  in
  let flush slot s t_wake =
    if Buffer.length s.s_out > 0 then begin
      let data = Buffer.contents s.s_out in
      Buffer.clear s.s_out;
      match
        let rec go off =
          if off < String.length data then
            go (off + Unix.write_substring s.s_fd data off (String.length data - off))
        in
        go 0
      with
      | () ->
        let t = now_ns () in
        List.iter
          (fun (r, report) ->
             if report then begin
               r.r_sent <- t;
               if sched = None && cur_bin () >= 0 then
                 late_ms := float_of_int (t - t_wake) /. 1e6 :: !late_ms
             end
             else if sched <> None && due_bin r >= 0 then
               late_ms := float_of_int (t - r.r_due) /. 1e6 :: !late_ms)
          s.s_stamp;
        s.s_stamp <- []
      | exception Unix.Unix_error (e, _, _) ->
        fail_session slot s (Unix.error_message e)
    end
  in
  let begin_round s r =
    Buffer.add_string s.s_out ready_frame;
    s.s_stamp <- (r, false) :: s.s_stamp;
    Queue.push r s.s_awaiting;
    s.s_started <- s.s_started + 1;
    incr attempted
  in
  (* top the session's window up, and say Bye once its rounds are done *)
  let pump slot s =
    if s.s_open && not s.s_bye then begin
      let room () =
        s.s_started - s.s_done < s.s_granted && s.s_started < w.W.session_rounds
      in
      (match sched with
       | None -> while (not !stopping) && room () do begin_round s (new_round 0) done
       | Some _ ->
         while room () && not (Queue.is_empty slot.backlog) do
           begin_round s (Queue.pop slot.backlog)
         done);
      let no_more =
        s.s_started = w.W.session_rounds
        || (!stopping && Queue.is_empty slot.backlog)
      in
      if s.s_done = s.s_started && no_more then begin
        Buffer.add_string s.s_out bye_frame;
        s.s_bye <- true
      end
    end
  in
  let open_session slot =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let t0 = now_ns () in
    match
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Printf.eprintf "e2e: connect failed: %s\n%!" (Unix.error_message e);
      incr attempted;
      incr failed
    | () ->
      let t1 = now_ns () in
      connect_us := float_of_int (t1 - t0) /. 1e3 :: !connect_us;
      let device = W.next_device tr devs in
      let hello =
        frame (N.Codec.Hello_ex { device_id = device; window = w.W.window;
                                  firmware = "" })
      in
      let s =
        { s_id = !next_session; s_device = device; s_fd = fd;
          s_dec = N.Frame.decoder (); s_t0 = t0; s_hello = hello;
          s_out = Buffer.create 4096; s_stamp = [];
          s_open = false; s_bye = false; s_granted = 0; s_started = 0;
          s_done = 0; s_awaiting = Queue.create ();
          s_by_seq = Hashtbl.create 64; s_last = t1; s_active = t1 }
      in
      incr next_session;
      Buffer.add_string s.s_out hello;
      slot.sess <- Some s
  in
  let capture_round s r accepted findings =
    let c =
      { c_session = s.s_id; c_device = s.s_device; c_hello = s.s_hello;
        c_kind = r.r_kind; c_shape = r.r_shape; c_report = r.r_frame;
        c_accepted = accepted; c_findings = findings }
    in
    incr seen;
    if !seen <= capture then reservoir.(!seen - 1) <- Some c
    else begin
      let j = Random.State.int cap_rng !seen in
      if j < capture then reservoir.(j) <- Some c
    end
  in
  let on_verdict slot s seq accepted_ findings =
    match Hashtbl.find_opt s.s_by_seq seq with
    | None -> fail_session slot s (Printf.sprintf "verdict for unknown seq %d" seq)
    | Some r ->
      Hashtbl.remove s.s_by_seq seq;
      let t = now_ns () in
      s.s_done <- s.s_done + 1;
      s.s_last <- t;
      if accepted_ then incr accepted else incr rejected;
      let want = W.expected r.r_kind in
      let got = W.verdict_kind ~accepted:accepted_ findings in
      count_kind want ~expected:1 ~seen:0;
      count_kind got ~expected:0 ~seen:1;
      if want <> got then begin
        incr wrong;
        if !wrong <= 5 then
          Printf.eprintf "e2e: wrong verdict: expected %s, got %s\n%!" want got
      end;
      let b = cur_bin () in
      if b >= 0 then begin
        accs.(b).a_rounds <- accs.(b).a_rounds + 1;
        if sched = None then
          accs.(b).a_round_ms <- float_of_int (t - r.r_sent) /. 1e6 :: accs.(b).a_round_ms;
        if capture > 0 then capture_round s r accepted_ findings
      end;
      (match sched with
       | Some _ when due_bin r >= 0 ->
         let a = accs.(due_bin r) in
         a.a_round_ms <- float_of_int (t - r.r_due) /. 1e6 :: a.a_round_ms
       | _ -> ());
      pump slot s
  in
  let on_msg slot s t_wake msg =
    s.s_active <- now_ns ();
    match msg with
    | N.Codec.Welcome { window } when not s.s_open ->
      s.s_open <- true;
      s.s_granted <- window;
      pump slot s
    | N.Codec.Request_seq { seq; challenge; args = _ } ->
      (match Queue.take_opt s.s_awaiting with
       | None -> fail_session slot s "request without Ready"
       | Some r ->
         let report =
           W.respond prover ~kind:r.r_kind ~shape:r.r_shape ~challenge
         in
         let f = frame (N.Codec.Report_seq { seq; wire = A.Wire.encode report }) in
         r.r_frame <- f;
         Hashtbl.replace s.s_by_seq seq r;
         Buffer.add_string s.s_out f;
         s.s_stamp <- (r, true) :: s.s_stamp;
         (* out in small groups: holding a whole read's worth of reports
            back would let the gateway run dry while the driver attests
            the rest, one write per report costs the driver a syscall *)
         if List.length s.s_stamp >= 4 then flush slot s t_wake)
    | N.Codec.Verdict_seq { seq; accepted; findings } ->
      on_verdict slot s seq accepted findings
    | N.Codec.Busy reason ->
      (* a bounced Ready: the round fails, the window slot frees *)
      (match Queue.take_opt s.s_awaiting with
       | Some _ ->
         Printf.eprintf "e2e: Busy: %s\n%!" reason;
         incr failed;
         s.s_done <- s.s_done + 1;
         pump slot s
       | None -> fail_session slot s ("Busy: " ^ reason))
    | N.Codec.Denied { detail; _ } -> fail_session slot s ("denied: " ^ detail)
    | m -> fail_session slot s (Format.asprintf "unexpected %a" N.Codec.pp_msg m)
  in
  let on_readable slot s t_wake =
    match Unix.read s.s_fd buf 0 (Bytes.length buf) with
    | 0 | (exception Unix.Unix_error _) ->
      if s.s_bye && s.s_done = s.s_started then begin
        let b = cur_bin () in
        if s.s_done > 0 && b >= 0 then begin
          accs.(b).a_sessions <- accs.(b).a_sessions + 1;
          accs.(b).a_session_ms <-
            float_of_int (s.s_last - s.s_t0) /. 1e6 :: accs.(b).a_session_ms
        end;
        close_session slot s
      end
      else fail_session slot s "connection dropped"
    | n ->
      (match N.Frame.feed s.s_dec (Bytes.sub_string buf 0 n) with
       | Error e -> fail_session slot s (N.Frame.error_to_string e)
       | Ok payloads ->
         List.iter
           (fun p ->
              if alive slot s then
                match N.Codec.decode p with
                | Ok msg -> on_msg slot s t_wake msg
                | Error e -> fail_session slot s (N.Codec.error_to_string e))
           payloads;
         if alive slot s then flush slot s t_wake)
  in
  let drain_deadline = t_e + ns 20.0 in
  let finished = ref false in
  while not !finished do
    let t = now_ns () in
    while !stamped <= nbins && t >= t_w + (!stamped * bin_ns) do
      stamps.(!stamped) <- t;
      clocks.(!stamped) <-
        (Gateway.cpu_seconds gw_pid, drv_cpu (), Gateway.steal_seconds ());
      incr stamped;
      if !stamped > nbins then begin
        rss := Gateway.peak_rss_mb gw_pid;
        stopping := true
      end
    done;
    (match sched with
     | Some sc when not !stopping ->
       while !next_due <= t do
         let slot = slots.(!next_round_id mod W.connections) in
         Queue.push (new_round !next_due) slot.backlog;
         next_due := !next_due + W.next_gap_ns sc
       done
     | _ -> ());
    Array.iter
      (fun slot ->
         match slot.sess with
         | None ->
           if not (!stopping && Queue.is_empty slot.backlog) then open_session slot
         | Some s ->
           (* a gateway that stops answering fails the session *)
           if s.s_started > s.s_done && t - s.s_active > ns 10.0 then
             fail_session slot s "reply timeout"
           else pump slot s)
      slots;
    Array.iter
      (fun slot -> match slot.sess with Some s -> flush slot s t | None -> ())
      slots;
    if t > drain_deadline then
      Array.iter
        (fun slot ->
           (match slot.sess with
            | Some s -> fail_session slot s "drain deadline"
            | None -> ());
           attempted := !attempted + Queue.length slot.backlog;
           failed := !failed + Queue.length slot.backlog;
           Queue.clear slot.backlog)
        slots;
    finished :=
      !stopping
      && Array.for_all (fun sl -> sl.sess = None && Queue.is_empty sl.backlog) slots;
    if not !finished then begin
      let fds =
        Array.to_list slots
        |> List.filter_map (fun sl -> Option.map (fun s -> s.s_fd) sl.sess)
      in
      let next_event =
        List.fold_left min (t + ns 0.01)
          [ (if !stamped <= nbins then t_w + (!stamped * bin_ns) else max_int);
            (if sched <> None && not !stopping then !next_due else max_int) ]
      in
      let timeout = Float.max 0.0 (float_of_int (next_event - t) /. 1e9) in
      let ready =
        match Unix.select fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      let t_wake = now_ns () in
      Array.iter
        (fun slot ->
           match slot.sess with
           | Some s when List.mem s.s_fd ready -> on_readable slot s t_wake
           | _ -> ())
        slots
    end
  done;
  let bins =
    Array.init nbins (fun b ->
        let a = accs.(b) in
        let gw0, drv0, st0 = clocks.(b) and gw1, drv1, st1 = clocks.(b + 1) in
        { secs = float_of_int (stamps.(b + 1) - stamps.(b)) /. 1e9;
          rounds = a.a_rounds; sessions = a.a_sessions;
          round_ms = Array.of_list a.a_round_ms;
          session_ms = Array.of_list a.a_session_ms;
          gw_cpu_s = gw1 -. gw0; drv_cpu_s = drv1 -. drv0; steal_s = st1 -. st0 })
  in
  { bins; attempted = !attempted; failed = !failed; wrong = !wrong;
    kinds =
      Hashtbl.fold (fun k (e, s) acc -> (k, e, s) :: acc) kinds []
      |> List.sort compare;
    accepted = !accepted; rejected = !rejected; rss_mb = !rss;
    connect_us = Array.of_list !connect_us; late_ms = Array.of_list !late_ms;
    captured =
      Array.of_list (List.filter_map Fun.id (Array.to_list reservoir)) }
