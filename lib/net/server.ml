module C = Dialed_core
module A = Dialed_apex
module F = Dialed_fleet
module L = Dialed_lifecycle.Lifecycle

type engine = Evloop

type config = {
  engine : engine;
  max_frame : int;
  read_deadline : float option;
  max_conns : int;
  domains : int;
  window : int;
  max_window : int;
  rate : float option;
  burst : float;
  args : int list;
  session_seed : string;
  memo : F.Memo.config option;
  plan_cache : F.Plan.cache option;
  lifecycle : L.t option;
  resolve_plan : (string -> F.Plan.t option) option;
}

let default_config =
  { engine = Evloop; max_frame = Frame.default_cap;
    read_deadline = Some 10.0; max_conns = 64;
    domains = 2; window = 32; max_window = 32; rate = None; burst = 8.0;
    args = []; session_seed = "dialed-gateway"; memo = None;
    plan_cache = None; lifecycle = None; resolve_plan = None }

type lifecycle_stats = {
  lc_admitted : int;
  lc_anonymous : int;
  lc_denied_unknown : int;
  lc_denied_revoked : int;
  lc_denied_quarantined : int;
  lc_denied_stale : int;
  lc_midsession_denials : int;
  lc_attested : int;
}

type stats = {
  connections_accepted : int;
  connections_active : int;
  connections_peak : int;
  sessions_active : int;
  frames_rx : int;
  frames_tx : int;
  bytes_rx : int;
  bytes_tx : int;
  requests_issued : int;
  reports_received : int;
  verdicts_accepted : int;
  verdicts_rejected : int;
  rate_limited : int;
  window_overflow : int;
  bad_seq : int;
  protocol_errors : int;
  deadline_timeouts : int;
  verify : F.Metrics.t;
  memo : F.Memo.stats option;
  plan_cache : F.Plan.cache_counters option;
  lifecycle : lifecycle_stats option;
}

(* ----------------------- connection state ----------------------- *)

(* One connection on the event loop: an explicit state machine instead
   of a blocked thread. [ec_sess = None] is the AWAIT_HELLO state; all
   fields are loop-thread-only. *)
type esess = {
  es_legacy : bool;
  es_window : int;
  es_gate : C.Protocol.gate;
  es_limiter : Ratelimit.t option;
  es_issued : (int, C.Protocol.request) Hashtbl.t;
  mutable es_next_seq : int;
  es_device : string;
  es_plan : F.Plan.t option;   (* per-firmware verify plan override *)
  mutable es_denied : bool;    (* lifecycle cut the session mid-flight *)
  mutable es_open : int;
}

type econn = {
  ec_id : int;
  mutable ec_ev : Evconn.t option;
  mutable ec_sess : esess option;
  mutable ec_alive : bool;
  mutable ec_deadline : Evloop.timer option;
  mutable ec_due : float; (* read deadline: last frame + [read_deadline] *)
}

type t = {
  cfg : config;
  listener : Transport.listener;
  pool : F.Pool.t;
  stream : F.Fleet.stream;
  memo_cache : F.Memo.t option;
  (* The loop's lifecycle, guarded by [m] (connection state lives inside
     [event_loop], never on [t]). [cv] is broadcast when [ev_done]
     flips, when [final] is set and when a {!stats} reply lands. *)
  m : Mutex.t;
  cv : Condition.t;
  mutable stopping : bool;
  mutable final : stats option;
  mutable loop : Evloop.t option;
  mutable loop_thread : Thread.t option;
  mutable ev_started : bool;
  mutable ev_done : bool;
  (* The one stop flag. Lock-free, so a signal handler can set it, even
     one that runs on the loop thread itself (taking [m] there could
     self-deadlock, and [stop]'s wait-for-cleanup certainly would). *)
  stop_req : bool Atomic.t;
  (* Connection ids and counters. Only the loop thread writes them, and
     it takes no lock to do so. {!stats} reads them on the loop thread,
     so one snapshot is one loop instant: a poller can never observe a
     torn pair (e.g. a verdict counted before its report). *)
  mutable next_conn_id : int;
  mutable c_accepted : int;
  mutable c_active : int;
  mutable c_peak : int;
  mutable c_sessions : int;
  mutable c_frames_rx : int;
  mutable c_frames_tx : int;
  mutable c_bytes_rx : int;
  mutable c_bytes_tx : int;
  mutable c_requests : int;
  mutable c_reports : int;
  mutable c_accepted_verdicts : int;
  mutable c_rejected_verdicts : int;
  mutable c_ratelimited : int;
  mutable c_window_overflow : int;
  mutable c_bad_seq : int;
  mutable c_proto_errors : int;
  mutable c_timeouts : int;
  mutable c_lc_admitted : int;
  mutable c_lc_anonymous : int;
  mutable c_lc_denied_unknown : int;
  mutable c_lc_denied_revoked : int;
  mutable c_lc_denied_quarantined : int;
  mutable c_lc_denied_stale : int;
  mutable c_lc_midsession : int;
  mutable c_lc_attested : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* ---------------------------------------------------------------- *)
(* Lifecycle plumbing.                                               *)

let denial_msg d = Codec.Denied { cause = d; detail = L.denial_to_string d }

let count_denial t = function
  | L.Unknown_device -> t.c_lc_denied_unknown <- t.c_lc_denied_unknown + 1
  | L.Revoked -> t.c_lc_denied_revoked <- t.c_lc_denied_revoked + 1
  | L.Quarantined_device ->
    t.c_lc_denied_quarantined <- t.c_lc_denied_quarantined + 1
  | L.Stale_firmware -> t.c_lc_denied_stale <- t.c_lc_denied_stale + 1

(* Handshake-time decision: ask the registry, attribute the counters.
   [Ok] on a registry-less server — everything stays anonymous. *)
let lifecycle_admit t ~device_id ~firmware =
  match t.cfg.lifecycle with
  | None -> Ok ()
  | Some lc ->
    (match L.admit lc ~device_id ~firmware with
     | Ok () ->
       if L.find lc device_id <> None then
         t.c_lc_admitted <- t.c_lc_admitted + 1
       else t.c_lc_anonymous <- t.c_lc_anonymous + 1;
       Ok ()
     | Error d -> count_denial t d; Error d)

(* Mid-session gate: ran on every inbound session frame and again right
   before each verdict leaves, so a revocation landing mid-window stops
   the very next verdict. *)
let lifecycle_recheck t device_id =
  match t.cfg.lifecycle with
  | None -> Ok ()
  | Some lc -> L.recheck lc device_id

(* Credit one delivered, accepted verdict to the device. *)
let lifecycle_attested t device_id =
  match t.cfg.lifecycle with
  | None -> ()
  | Some lc ->
    if device_id <> "" && L.find lc device_id <> None then begin
      L.note_attested lc device_id;
      t.c_lc_attested <- t.c_lc_attested + 1
    end

(* The verify plan this session's reports route to: the per-firmware
   plan when the operator wired a resolver and the peer claimed a
   version, else the server's default plan. *)
let resolve_session_plan t firmware =
  match t.cfg.resolve_plan with
  | Some f when firmware <> "" -> f firmware
  | _ -> None

(* The dialect is an encoding at the edge. The session machine speaks
   sequence-numbered frames; a legacy session is a window-1 session
   whose frames omit the number. *)
let at_edge es msg =
  if not es.es_legacy then msg
  else
    match msg with
    | Codec.Request_seq { challenge; args; _ } ->
      Codec.Request { challenge; args }
    | Codec.Verdict_seq { accepted; findings; _ } ->
      Codec.Verdict { accepted; findings }
    | msg -> msg

let create ?(config = default_config) ~plan listener =
  if config.max_conns < 1 then invalid_arg "Server.create: max_conns < 1";
  if config.domains < 1 then invalid_arg "Server.create: domains < 1";
  if config.max_window < 1 then invalid_arg "Server.create: max_window < 1";
  if config.max_window > Codec.max_window then
    invalid_arg "Server.create: max_window exceeds Codec.max_window";
  let pool = F.Pool.create ~domains:config.domains () in
  let memo_cache =
    Option.map (fun c -> F.Memo.create ~config:c ()) config.memo
  in
  let stream =
    F.Fleet.stream ~pool ~window:config.window ?memo:memo_cache plan
  in
  { cfg = config; listener; pool; stream; memo_cache;
    m = Mutex.create (); cv = Condition.create ();
    next_conn_id = 0; stopping = false; final = None;
    loop = None; loop_thread = None; ev_started = false;
    ev_done = false; stop_req = Atomic.make false;
    c_accepted = 0; c_active = 0; c_peak = 0; c_sessions = 0;
    c_frames_rx = 0;
    c_frames_tx = 0; c_bytes_rx = 0; c_bytes_tx = 0; c_requests = 0;
    c_reports = 0; c_accepted_verdicts = 0; c_rejected_verdicts = 0;
    c_ratelimited = 0; c_window_overflow = 0; c_bad_seq = 0;
    c_proto_errors = 0; c_timeouts = 0;
    c_lc_admitted = 0; c_lc_anonymous = 0; c_lc_denied_unknown = 0;
    c_lc_denied_revoked = 0; c_lc_denied_quarantined = 0;
    c_lc_denied_stale = 0; c_lc_midsession = 0; c_lc_attested = 0 }

(* Best effort, like every send to a peer about to be dropped: a freshly
   accepted socket takes the ~20-byte frame whole, and loopback sends
   always complete. *)
let refuse t conn reason =
  let frame =
    Frame.encode ~cap:t.cfg.max_frame (Codec.encode (Codec.Busy reason))
  in
  (try ignore (Transport.try_send conn frame 0 (String.length frame))
   with _ -> ());
  Transport.close conn

(* ---------------------------------------------------------------- *)
(* The gateway loop: every connection is an [econn] state machine on a
   single readiness loop (DESIGN §5g). Reads pump through {!Evconn};
   replay work goes to the fleet pool via the stream, and verdict
   completion wakes the loop (self-pipe via [stream_on_progress]).
   When the stream window is full, reports wait in a loop-local FIFO —
   backpressure without blocking the loop. Any exit path — clean Bye,
   EOF, hostile bytes, deadline — lands in [close_conn].

   The windowed-session machine (DESIGN §5e). One machine serves both
   dialects: a legacy session is OPEN with W=1, and [at_edge] drops the
   seq from its frames. A legacy Report answers the session's one open
   round (none open: an unnumbered bad-token rejection), and a legacy
   Bye closes cleanly even with that round open.

     AWAIT_HELLO --Hello----------> OPEN(legacy, W=1)
     AWAIT_HELLO --Hello_ex-------> OPEN(pipelined, W=min(req,max))  [Welcome]
     OPEN: Ready      | open < W  -> issue seq, open+1        [Request]
           Ready      | open >= W -> window overflow          [Busy]
           Ready      | no token  -> rate limited             [Busy]
           Report(seq)| issued    -> decode/redeem -> submit or reject(open-1)
           Report(seq)| unknown   -> bad-seq                  [Verdict-]
           Report     | other dialect -> protocol error       close
           Bye        | open = 0  -> close (clean)
           Bye        | open > 0  -> protocol error           [Busy] close
           <verdict from stream>  -> open-1                   [Verdict]

   Invariants: 0 <= open <= W at every step; a seq is issued at most
   once and answered at most once; per-session verdicts leave in issue
   order (the fleet stream and the wait queue are FIFO, and only
   [drain_verdicts] sends verdicts for submitted rounds).

   Everything inside [event_loop] is loop-thread-only, and so are the
   counters on [t]: the loop writes them without a lock, and {!stats}
   reads them through a posted thunk. Only the stream, [t.loop] and the
   stop flag cross threads.                                          *)

type ev_waiting = {
  wt_ec : econn;
  wt_es : esess;
  wt_seq : int;
  wt_digest : string option;
  wt_report : A.Pox.report;
}

let event_loop t =
  let loop = Evloop.create () in
  (* published before the first counter write: from here until the exit
     in [run_evloop], {!stats} reads the counters on this thread *)
  locked t (fun () -> t.loop <- Some loop);
  let conns : (int, econn) Hashtbl.t = Hashtbl.create 256 in
  (* submitted reports awaiting verdicts, in stream-submission order *)
  let pending : (econn * int) Queue.t = Queue.create () in
  (* reports that found the stream window full *)
  let waiting : ev_waiting Queue.t = Queue.create () in
  let on_traffic ~rx ~tx =
    t.c_bytes_rx <- t.c_bytes_rx + rx;
    t.c_bytes_tx <- t.c_bytes_tx + tx
  in
  let send ec msg =
    match ec.ec_ev with
    | None -> ()
    | Some ev ->
      if not (Evconn.is_closed ev) then begin
        Evconn.send ev msg;
        (* a send that discovered a dead peer closed the pump; count
           only frames that were actually queued *)
        if not (Evconn.is_closed ev) then t.c_frames_tx <- t.c_frames_tx + 1
      end
  in
  let send_verdict ec es seq accepted findings =
    send ec (at_edge es (Codec.Verdict_seq { seq; accepted; findings }))
  in
  let close_conn ?(flush = false) ec =
    if ec.ec_alive then begin
      ec.ec_alive <- false;
      (match ec.ec_deadline with
       | Some tm -> Evloop.cancel loop tm; ec.ec_deadline <- None
       | None -> ());
      (match ec.ec_ev with
       | Some ev ->
         if flush then Evconn.close_after_flush ev else Evconn.close ev
       | None -> ());
      Hashtbl.remove conns ec.ec_id;
      t.c_active <- t.c_active - 1;
      if ec.ec_sess <> None then t.c_sessions <- t.c_sessions - 1
    end
  in
  let proto_error ?(flush = false) ?busy ec =
    t.c_proto_errors <- t.c_proto_errors + 1;
    (match busy with Some reason -> send ec (Codec.Busy reason) | None -> ());
    close_conn ~flush ec
  in
  (* One timer per connection, moved lazily: a frame only pushes
     [ec_due] forward, and a timer that fires before [ec_due] re-arms for
     the rest. A fresh timer per frame would leave a cancelled timer per
     frame in the wheel until its slot came due, [read_deadline] later. *)
  let rec arm_deadline ec =
    match t.cfg.read_deadline with
    | None -> ()
    | Some d ->
      ec.ec_due <- Unix.gettimeofday () +. d;
      if Option.is_none ec.ec_deadline then arm_timer ec d
  and arm_timer ec delay =
    ec.ec_deadline <- Some (Evloop.after loop delay (fun () -> on_deadline ec))
  and on_deadline ec =
    if ec.ec_alive then begin
      ec.ec_deadline <- None;
      let left = ec.ec_due -. Unix.gettimeofday () in
      if left > 0.0 then arm_timer ec left
      else begin
        match ec.ec_sess with
        | Some es when Hashtbl.length es.es_issued = 0 && es.es_open > 0 ->
          (* every issued challenge answered, verdicts still queued in the
             engine: the peer owes us nothing — re-arm instead of killing
             it for our own queueing delay *)
          arm_deadline ec
        | _ ->
          t.c_timeouts <- t.c_timeouts + 1;
          close_conn ec
      end
    end
  in
  let reject ec es seq kind detail =
    t.c_rejected_verdicts <- t.c_rejected_verdicts + 1;
    send_verdict ec es seq false [ (kind, detail) ]
  in
  let reject_round ec es seq kind detail =
    es.es_open <- es.es_open - 1;
    reject ec es seq kind detail
  in
  let on_ready ec es =
    let admit =
      match es.es_limiter with None -> true | Some l -> Ratelimit.try_take l
    in
    if not admit then begin
      t.c_ratelimited <- t.c_ratelimited + 1;
      send ec (Codec.Busy "rate limited")
    end
    else if es.es_open >= es.es_window then begin
      t.c_window_overflow <- t.c_window_overflow + 1;
      send ec (Codec.Busy "window full")
    end
    else begin
      let seq = es.es_next_seq in
      es.es_next_seq <- seq + 1;
      let req = C.Protocol.gate_issue es.es_gate ~args:t.cfg.args in
      Hashtbl.replace es.es_issued seq req;
      es.es_open <- es.es_open + 1;
      t.c_requests <- t.c_requests + 1;
      send ec
        (at_edge es
           (Codec.Request_seq
              { seq; challenge = req.C.Protocol.challenge;
                args = req.C.Protocol.args }))
    end
  in
  (* Submission. Per-session verdict FIFO requires global submission
     order to extend per-session arrival order, so once anything waits,
     everything new waits behind it. *)
  let submit ec es seq digest report =
    if not (Queue.is_empty waiting) then
      Queue.add { wt_ec = ec; wt_es = es; wt_seq = seq; wt_digest = digest;
                  wt_report = report }
        waiting
    else if
      F.Fleet.stream_try_submit ?digest ?plan:es.es_plan t.stream
        es.es_device report
    then Queue.add (ec, seq) pending
    else
      Queue.add { wt_ec = ec; wt_es = es; wt_seq = seq; wt_digest = digest;
                  wt_report = report }
        waiting
  in
  let drain_waiting () =
    let continue = ref true in
    while !continue && not (Queue.is_empty waiting) do
      let w = Queue.peek waiting in
      if not w.wt_ec.ec_alive then ignore (Queue.pop waiting)
      else if
        F.Fleet.stream_try_submit ?digest:w.wt_digest ?plan:w.wt_es.es_plan
          t.stream w.wt_es.es_device w.wt_report
      then begin
        ignore (Queue.pop waiting);
        Queue.add (w.wt_ec, w.wt_seq) pending
      end
      else continue := false
    done
  in
  let on_report ec es seq req wire =
    Hashtbl.remove es.es_issued seq;
    let decoded =
      if t.memo_cache = None then
        Result.map (fun r -> (r, None)) (A.Wire.decode wire)
      else
        Result.map (fun (r, d) -> (r, Some d)) (A.Wire.decode_digested wire)
    in
    match decoded with
    | Error e -> reject_round ec es seq "bad-report" (A.Wire.error_to_string e)
    | Ok (report, digest) ->
      match C.Protocol.gate_redeem es.es_gate req report with
      | Error reason -> reject_round ec es seq "bad-token" reason
      | Ok () -> submit ec es seq digest report
  in
  (* Mid-session lifecycle cut: count it once, push the Denied frame,
     and close (flushing, so the frame gets out before the FIN). *)
  let deny_midsession ec es d =
    if not es.es_denied then begin
      es.es_denied <- true;
      t.c_lc_midsession <- t.c_lc_midsession + 1;
      send ec (denial_msg d)
    end;
    close_conn ~flush:true ec
  in
  let drain_verdicts () =
    List.iter
      (fun (v : F.Fleet.verdict) ->
        match Queue.take_opt pending with
        | None -> ()   (* unreachable: enqueued at submission *)
        | Some (ec, seq) ->
          if v.F.Fleet.accepted then
            t.c_accepted_verdicts <- t.c_accepted_verdicts + 1
          else t.c_rejected_verdicts <- t.c_rejected_verdicts + 1;
          (match ec.ec_sess with
           | None -> ()
           | Some es ->
             es.es_open <- es.es_open - 1;
             if ec.ec_alive then begin
               (* pre-issue quarantine gate: a revocation that landed
                  while this round was in the engine stops its verdict *)
               match lifecycle_recheck t es.es_device with
               | Error d -> deny_midsession ec es d
               | Ok () ->
                 send_verdict ec es seq v.F.Fleet.accepted
                   (List.map
                      (fun f ->
                         ( C.Verifier.finding_kind f,
                           Format.asprintf "%a" C.Verifier.pp_finding f ))
                      v.F.Fleet.findings);
                 if v.F.Fleet.accepted then lifecycle_attested t es.es_device
             end))
      (F.Fleet.stream_poll t.stream);
    drain_waiting ()
  in
  (* Both greetings open the same session; the granted window is
     answered only in the dialect that asked for one. *)
  let on_hello ec ~legacy ~window ~firmware device_id =
    if device_id = "" || String.length device_id > 128 || window < 1 then
      proto_error ec
    else
      match lifecycle_admit t ~device_id ~firmware with
      | Error d ->
        send ec (denial_msg d);
        close_conn ~flush:true ec
      | Ok () ->
        let window = min window t.cfg.max_window in
        ec.ec_sess <-
          Some
            { es_legacy = legacy; es_window = window;
              es_gate =
                C.Protocol.make_gate
                  ~seed:(t.cfg.session_seed ^ "/" ^ device_id) ();
              es_limiter =
                Option.map
                  (fun rate -> Ratelimit.create ~rate ~burst:t.cfg.burst ())
                  t.cfg.rate;
              es_issued = Hashtbl.create 8; es_next_seq = 0;
              es_device = device_id; es_plan = resolve_session_plan t firmware;
              es_denied = false; es_open = 0 };
        t.c_sessions <- t.c_sessions + 1;
        if not legacy then send ec (Codec.Welcome { window })
  in
  (* Inbound mid-session gate: [true] = carry on, [false] = session cut
     (Denied sent, connection closing). *)
  let lifecycle_ok ec es =
    match lifecycle_recheck t es.es_device with
    | Ok () -> true
    | Error d -> deny_midsession ec es d; false
  in
  let on_msg ec msg =
    t.c_frames_rx <- t.c_frames_rx + 1;
    arm_deadline ec;
    match ec.ec_sess, msg with
    | None, Codec.Hello { device_id } ->
      on_hello ec ~legacy:true ~window:1 ~firmware:"" device_id
    | None, Codec.Hello_ex { device_id; window; firmware } ->
      on_hello ec ~legacy:false ~window ~firmware device_id
    | Some es, Codec.Bye ->
      if (not es.es_legacy) && es.es_open > 0 then
        proto_error ~flush:true ~busy:"bye with rounds in flight" ec
      else close_conn ec
    | Some es, Codec.Ready -> if lifecycle_ok ec es then on_ready ec es
    | Some es, (Codec.Report _ | Codec.Report_seq _) ->
      if lifecycle_ok ec es then begin
        t.c_reports <- t.c_reports + 1;
        (* the round the report answers: a legacy session's one open
           round, or the round a pipelined report names. A report of the
           other dialect is hostile: a pipelined session cannot tell
           which round an unnumbered report answers. *)
        match msg with
        | Codec.Report wire when es.es_legacy ->
          (match Hashtbl.fold (fun k v _ -> Some (k, v)) es.es_issued None with
           | Some (seq, req) -> on_report ec es seq req wire
           | None -> reject ec es 0 "bad-token" "no outstanding challenge")
        | Codec.Report_seq { seq; wire } when not es.es_legacy ->
          (match Hashtbl.find_opt es.es_issued seq with
           | Some req -> on_report ec es seq req wire
           | None ->
             t.c_bad_seq <- t.c_bad_seq + 1;
             reject ec es seq "bad-seq"
               "unknown or already-answered sequence number")
        | _ -> proto_error ec
      end
    | None, _
    | Some _,
      ( Codec.Hello _ | Codec.Hello_ex _ | Codec.Request _ | Codec.Verdict _
      | Codec.Busy _ | Codec.Welcome _ | Codec.Request_seq _
      | Codec.Verdict_seq _ | Codec.Denied _ ) ->
      proto_error ec
  in
  let admit conn =
    if Atomic.get t.stop_req then refuse t conn "shutting down"
    else if t.c_active >= t.cfg.max_conns then begin
      t.c_ratelimited <- t.c_ratelimited + 1;
      refuse t conn "server full"
    end
    else begin
      let id = t.next_conn_id in
      t.next_conn_id <- id + 1;
      t.c_accepted <- t.c_accepted + 1;
      t.c_active <- t.c_active + 1;
      if t.c_active > t.c_peak then t.c_peak <- t.c_active;
      let ec =
        { ec_id = id; ec_ev = None; ec_sess = None; ec_alive = true;
          ec_deadline = None; ec_due = 0.0 }
      in
      Hashtbl.replace conns id ec;
      let ev =
        Evconn.attach ~loop ~cap:t.cfg.max_frame
          ~on_msg:(fun _ev msg -> on_msg ec msg)
          ~on_eof:(fun _ev -> close_conn ec)
          ~on_error:(fun _ev e ->
            match e with
            | `Send_closed -> close_conn ec
            | `Eof_mid_frame | `Frame _ | `Codec _ | `Wqueue_overflow ->
              proto_error ec)
          ~on_traffic conn
      in
      ec.ec_ev <- Some ev;
      arm_deadline ec
    end
  in
  let accept_burst () =
    let rec go () =
      match Transport.try_accept t.listener with
      | Some conn -> admit conn; go ()
      | None -> ()
      | exception Transport.Closed -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  (match Transport.listener_readiness t.listener with
   | Transport.Fd lfd ->
     Evloop.watch loop lfd ~read:(Some accept_burst) ~write:None
   | Transport.Hook ->
     Transport.on_acceptable t.listener
       (Some (Evloop.hook_source loop accept_burst));
     (* dials that raced the hook installation *)
     Evloop.post loop accept_burst);
  F.Fleet.stream_on_progress t.stream
    (Some (Evloop.hook_source loop drain_verdicts));
  Evloop.run loop ~stop:(fun () -> Atomic.get t.stop_req);
  (* cleanup, still on the loop thread *)
  F.Fleet.stream_on_progress t.stream None;
  (match Transport.listener_readiness t.listener with
   | Transport.Fd lfd -> Evloop.unwatch loop lfd
   | Transport.Hook ->
     (try Transport.on_acceptable t.listener None with _ -> ()));
  let all = Hashtbl.fold (fun _ ec acc -> ec :: acc) conns [] in
  List.iter (fun ec -> close_conn ec) all;
  (* verdicts for submitted-but-unanswered reports are dropped, like
     any send to a closed connection *)
  Queue.clear pending;
  Queue.clear waiting;
  Evloop.close loop

(* The loop's whole life. Only the loop closes the listener it watches,
   after the unwatch: closed from another thread first, its descriptor
   number can be reused (even by the loop's own epoll fd) before the
   loop registers or drops it. [ev_done] flips on every exit,
   exceptions included, so [stop] never waits on a loop that died, and
   [t.loop] is withdrawn after the loop's last counter write, so a
   {!stats} caller still waiting reads the counters itself. *)
let run_evloop t =
  Fun.protect
    ~finally:(fun () ->
        (try Transport.shutdown t.listener with _ -> ());
        locked t (fun () ->
            t.loop <- None;
            t.ev_done <- true;
            Condition.broadcast t.cv))
    (fun () -> event_loop t)

(* ---------------------------------------------------------------- *)

(* Claim the loop for [serve_forever] or [start]: false when a stop is
   already pending, and then no loop runs. Call with [m] held. *)
let claim_loop_locked t caller =
  if t.ev_started then invalid_arg (caller ^ ": running");
  t.ev_started <- not (Atomic.get t.stop_req);
  t.ev_started

let serve_forever t =
  if locked t (fun () -> claim_loop_locked t "Server.serve_forever") then
    run_evloop t

let start t =
  locked t (fun () ->
      if claim_loop_locked t "Server.start" then
        t.loop_thread <- Some (Thread.create (fun () -> run_evloop t) ()))

(* on the loop thread, or under [m] with no loop running *)
let snapshot t verify memo plan_cache =
  let lifecycle =
    match t.cfg.lifecycle with
    | None -> None
    | Some _ ->
      Some
        { lc_admitted = t.c_lc_admitted;
          lc_anonymous = t.c_lc_anonymous;
          lc_denied_unknown = t.c_lc_denied_unknown;
          lc_denied_revoked = t.c_lc_denied_revoked;
          lc_denied_quarantined = t.c_lc_denied_quarantined;
          lc_denied_stale = t.c_lc_denied_stale;
          lc_midsession_denials = t.c_lc_midsession;
          lc_attested = t.c_lc_attested }
  in
  { connections_accepted = t.c_accepted;
    connections_active = t.c_active;
    connections_peak = t.c_peak;
    sessions_active = t.c_sessions;
    frames_rx = t.c_frames_rx;
    frames_tx = t.c_frames_tx;
    bytes_rx = t.c_bytes_rx;
    bytes_tx = t.c_bytes_tx;
    requests_issued = t.c_requests;
    reports_received = t.c_reports;
    verdicts_accepted = t.c_accepted_verdicts;
    verdicts_rejected = t.c_rejected_verdicts;
    rate_limited = t.c_ratelimited;
    window_overflow = t.c_window_overflow;
    bad_seq = t.c_bad_seq;
    protocol_errors = t.c_proto_errors;
    deadline_timeouts = t.c_timeouts;
    verify; memo; plan_cache; lifecycle }

(* The counters are read where they are written: a thunk posted to a
   running loop copies them there. The loop publishes [t.loop] under [m]
   before its first counter write and withdraws it under [m] after its
   last, so a caller holding [m] that finds no loop (not started, or
   exited before the thunk ran) reads them itself. *)
let stats t =
  match locked t (fun () -> t.final) with
  | Some final -> final
  | None ->
    (* the verify metrics live under the stream's own lock; taking them
       first keeps the lock order acyclic (never [m] -> stream) *)
    let verify = F.Fleet.stream_snapshot t.stream in
    let memo = Option.map F.Memo.stats t.memo_cache in
    let plan_cache = Option.map F.Plan.cache_counters t.cfg.plan_cache in
    let read () = snapshot t verify memo plan_cache in
    locked t (fun () ->
        match t.loop with
        | None -> read ()
        | Some loop ->
          let reply = ref None in
          Evloop.post loop (fun () ->
              let s = read () in
              locked t (fun () ->
                  reply := Some s;
                  Condition.broadcast t.cv));
          while Option.is_none !reply && Option.is_some t.loop do
            Condition.wait t.cv t.m
          done;
          match !reply with Some s -> s | None -> read ())

(* Async-signal-safe stop request: no OCaml mutexes, so it can run from
   a signal handler — including one delivered to the loop thread
   itself, the [serve_forever] + SIGINT case where calling
   [stop] would self-deadlock waiting for a cleanup that can never run.
   The loop unwinds (closing the listener) and [serve_forever] returns;
   the caller then runs [stop] normally to finish teardown and collect
   final stats. *)
let request_stop t =
  Atomic.set t.stop_req true;
  (* [Evloop.wake] is atomics + a pipe write *)
  match t.loop with
  | Some l -> Evloop.wake l
  | None -> ()

let stop t =
  let later =
    locked t (fun () ->
        if not t.stopping then begin t.stopping <- true; None end
        else begin
          (* another caller is tearing down: wait for its final stats *)
          while Option.is_none t.final do Condition.wait t.cv t.m done;
          t.final
        end)
  in
  match later with
  | Some final -> final
  | None ->
    Atomic.set t.stop_req true;
    let started, thread =
      locked t (fun () ->
          (* under [m], a loop that has published itself is woken, and one
             that has not yet sees [stop_req] before it blocks. The loop
             runs its own cleanup (closing connections needs loop state,
             and it closes the listener it watches): wait for it before
             touching the stream. *)
          Option.iter Evloop.wake t.loop;
          while t.ev_started && not t.ev_done do Condition.wait t.cv t.m done;
          (t.ev_started, t.loop_thread))
    in
    (* no loop ever watched the listener *)
    if not started then Transport.shutdown t.listener;
    Option.iter Thread.join thread;
    (* everything submitted has been dispatched or dropped, so closing
       the stream cannot block on lost work *)
    let summary = F.Fleet.stream_close t.stream in
    F.Pool.shutdown t.pool;
    let memo = Option.map F.Memo.stats t.memo_cache in
    let plan_cache = Option.map F.Plan.cache_counters t.cfg.plan_cache in
    locked t (fun () ->
        let final = snapshot t summary.F.Fleet.metrics memo plan_cache in
        t.final <- Some final;
        Condition.broadcast t.cv;
        final)

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>conns: %d accepted, %d active (peak %d), %d sessions@,\
     frames: %d rx / %d tx   bytes: %d rx / %d tx@,\
     rounds: %d requests, %d reports, %d accepted, %d rejected@,\
     defenses: %d rate-limited, %d window-overflow, %d bad-seq, \
     %d protocol errors, %d timeouts@,\
     verify: %a@]"
    s.connections_accepted s.connections_active s.connections_peak
    s.sessions_active
    s.frames_rx s.frames_tx s.bytes_rx s.bytes_tx s.requests_issued
    s.reports_received s.verdicts_accepted s.verdicts_rejected
    s.rate_limited s.window_overflow s.bad_seq s.protocol_errors
    s.deadline_timeouts F.Metrics.pp s.verify;
  (match s.memo with
   | None -> ()
   | Some m -> Format.fprintf ppf "@,%a" F.Memo.pp_stats m);
  (match s.plan_cache with
   | None -> ()
   | Some c -> Format.fprintf ppf "@,%a" F.Plan.pp_cache_counters c);
  match s.lifecycle with
  | None -> ()
  | Some l ->
    Format.fprintf ppf
      "@,lifecycle: %d admitted, %d anonymous, denied %d unknown / %d \
       revoked / %d quarantined / %d stale, %d mid-session cuts, %d \
       attested verdicts"
      l.lc_admitted l.lc_anonymous l.lc_denied_unknown l.lc_denied_revoked
      l.lc_denied_quarantined l.lc_denied_stale l.lc_midsession_denials
      l.lc_attested

let stats_to_json s =
  Printf.sprintf
    "{ \"connections_accepted\": %d, \"connections_active\": %d, \
     \"connections_peak\": %d, \
     \"sessions_active\": %d, \"frames_rx\": %d, \"frames_tx\": %d, \
     \"bytes_rx\": %d, \"bytes_tx\": %d, \"requests_issued\": %d, \
     \"reports_received\": %d, \"verdicts_accepted\": %d, \
     \"verdicts_rejected\": %d, \"rate_limited\": %d, \
     \"window_overflow\": %d, \"bad_seq\": %d, \
     \"protocol_errors\": %d, \"deadline_timeouts\": %d, \"verify\": %s, \
     \"memo\": %s, \"plan_cache\": %s, \"lifecycle\": %s }"
    s.connections_accepted s.connections_active s.connections_peak
    s.sessions_active
    s.frames_rx s.frames_tx s.bytes_rx s.bytes_tx s.requests_issued
    s.reports_received s.verdicts_accepted s.verdicts_rejected
    s.rate_limited s.window_overflow s.bad_seq s.protocol_errors
    s.deadline_timeouts
    (F.Metrics.to_json s.verify)
    (match s.memo with
     | None -> "null"
     | Some m -> F.Memo.stats_to_json m)
    (match s.plan_cache with
     | None -> "null"
     | Some c -> F.Plan.cache_counters_to_json c)
    (match s.lifecycle with
     | None -> "null"
     | Some l ->
       Printf.sprintf
         "{ \"admitted\": %d, \"anonymous\": %d, \"denied_unknown\": %d, \
          \"denied_revoked\": %d, \"denied_quarantined\": %d, \
          \"denied_stale\": %d, \"midsession_denials\": %d, \
          \"attested\": %d }"
         l.lc_admitted l.lc_anonymous l.lc_denied_unknown
         l.lc_denied_revoked l.lc_denied_quarantined l.lc_denied_stale
         l.lc_midsession_denials l.lc_attested)
