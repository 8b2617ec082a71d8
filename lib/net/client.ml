module C = Dialed_core
module A = Dialed_apex

type config = {
  read_deadline : float option;
  attempts : int;
  backoff_base : float;
  backoff_cap : float;
  jitter_seed : string;
  mangle : (A.Pox.report -> A.Pox.report) option;
}

let default_config =
  { read_deadline = Some 5.0; attempts = 4; backoff_base = 0.05;
    backoff_cap = 2.0; jitter_seed = "dialed-prover"; mangle = None }

(* Jitter in [0.5, 1.5) from a hash of (seed, attempt): deterministic,
   but decorrelated across attempts and across provers with different
   seeds — a fleet of provers bounced by the same Busy burst does not
   retry in lockstep. *)
let jitter_frac cfg attempt =
  let h =
    Dialed_crypto.Sha256.digest
      (Printf.sprintf "%s|backoff|%d" cfg.jitter_seed attempt)
  in
  let v = (Char.code h.[0] lsl 8) lor Char.code h.[1] in
  float_of_int v /. 65536.0

let backoff_delay cfg ~attempt =
  if attempt < 1 then invalid_arg "Client.backoff_delay: attempt < 1";
  let raw = cfg.backoff_base *. (2.0 ** float_of_int (attempt - 1)) in
  Float.min cfg.backoff_cap raw *. (0.5 +. jitter_frac cfg attempt)

exception Protocol_violation of string

type pipelined_round = {
  p_accepted : bool;
  p_findings : (string * string) list;
  p_latency : float;
}

type pipelined = {
  granted : int;
  results : pipelined_round array;
  busy_bounces : int;
  reply_timeouts : int;
  denied : (Codec.denial * string) option;
}

(* ------------------------------------------------------------------ *)
(* The prover session: one state machine for both dialects, driven by
   an {!Evloop} over {!Evconn}. It keeps up to [granted] rounds in
   flight (topped up with Ready), answers each Request with a Report,
   files verdicts by sequence number, backs off from Busy on a loop
   timer and arms a reply deadline while rounds are in flight. A legacy
   session is a window-1 session whose frames carry no sequence
   numbers: with one round in flight, requests and verdicts arrive in
   round order, so the machine numbers them itself. *)

type greeting = Legacy | Windowed of { window : int; firmware : string }

type failure = Closed | Violation of string

let failure_to_string = function
  | Closed -> "connection closed by gateway"
  | Violation m -> "protocol violation: " ^ m

type phase =
  | Welcome  (* Hello_ex sent, awaiting Welcome *)
  | Up       (* session granted, rounds not started *)
  | Running
  | Ended

type session = {
  loop : Evloop.t;
  cfg : config;
  legacy : bool;
  window : int;  (* requested *)
  rounds : int;
  respond : seq:int -> C.Protocol.request -> A.Pox.report;
  on_up : unit -> unit;
  on_done : (pipelined, failure) result -> unit;
  mutable ev : Evconn.t option;
  mutable phase : phase;
  mutable started : bool;
  mutable send_closed : bool;
  mutable granted : int;
  mutable denied : (Codec.denial * string) option;
  results : pipelined_round array;
  landed : bool array;
  sent_at : float array;  (* nan until the round's Report is sent *)
  mutable requested : int;
  mutable completed : int;
  mutable inflight : int;
  mutable busy : int;
  mutable timeouts : int;
  mutable consec_timeouts : int;
  mutable deadline : Evloop.timer option;
  mutable backoff : Evloop.timer option;
}

let is_closed s =
  s.phase = Ended && Option.fold ~none:true ~some:Evconn.is_closed s.ev

let send s msg =
  match s.ev with
  | Some ev when not s.send_closed -> Evconn.send ev msg
  | _ -> ()

let cancel s tm = Option.iter (Evloop.cancel s.loop) tm

(* End the session once: say Bye when the connection still takes
   writes, close it once that has flushed, and report the outcome. A
   session that ends during its handshake still reports being up, so a
   barrier counting sessions is never held by a dead one. *)
let finish s outcome =
  if s.phase <> Ended then begin
    let handshake = s.phase = Welcome in
    s.phase <- Ended;
    cancel s s.deadline;
    cancel s s.backoff;
    (match s.ev, outcome with
     | Some ev, Ok _ when not s.send_closed ->
       Evconn.send ev Codec.Bye;
       Evconn.close_after_flush ev
     | Some ev, _ -> Evconn.close ev
     | None, _ -> ());
    s.on_done outcome;
    if handshake then s.on_up ()
  end

let conclude s =
  (* denied before the gateway admitted it: no window, no rounds *)
  let refused =
    s.denied <> None && (s.phase = Welcome || (s.legacy && s.requested = 0))
  in
  finish s
    (Ok { granted = (if refused then 0 else s.granted);
          results = (if refused then [||] else s.results);
          busy_bounces = s.busy; reply_timeouts = s.timeouts;
          denied = s.denied })

let violation s fmt =
  Printf.ksprintf (fun m -> finish s (Error (Violation m))) fmt

let rec arm_deadline s =
  Option.iter
    (fun d ->
       cancel s s.deadline;
       s.deadline <- Some (Evloop.after s.loop d (fun () -> on_deadline s)))
    s.cfg.read_deadline

and on_deadline s =
  match s.phase with
  | Welcome -> violation s "no Welcome from gateway (timeout)"
  | Running ->
    s.timeouts <- s.timeouts + 1;
    s.consec_timeouts <- s.consec_timeouts + 1;
    if s.consec_timeouts >= s.cfg.attempts then conclude s
    else arm_deadline s
  | Up | Ended -> ()

(* Fill the window (unless backing off) and keep the reply deadline
   armed exactly while rounds are in flight. *)
let top_up s =
  if Option.is_none s.backoff then
    while s.inflight < s.granted && s.completed + s.inflight < s.rounds do
      send s Codec.Ready;
      s.inflight <- s.inflight + 1
    done;
  if s.inflight > 0 then arm_deadline s else cancel s s.deadline

let start s =
  s.started <- true;
  if s.phase = Up then begin
    s.phase <- Running;
    if s.rounds = 0 then conclude s else top_up s
  end

let on_request s seq challenge args =
  if seq >= s.rounds then
    violation s "Request for sequence %d beyond %d rounds" seq s.rounds
  else begin
    s.requested <- s.requested + 1;
    let report = s.respond ~seq { C.Protocol.challenge; args } in
    let report = match s.cfg.mangle with None -> report | Some f -> f report in
    s.sent_at.(seq) <- Unix.gettimeofday ();
    let wire = A.Wire.encode report in
    send s
      (if s.legacy then Codec.Report wire else Codec.Report_seq { seq; wire });
    top_up s
  end

let on_verdict s seq accepted findings =
  if seq >= s.rounds then
    violation s "Verdict for sequence %d beyond %d rounds" seq s.rounds
  else if s.landed.(seq) then violation s "duplicate Verdict for sequence %d" seq
  else begin
    s.landed.(seq) <- true;
    s.results.(seq) <-
      { p_accepted = accepted; p_findings = findings;
        p_latency = Unix.gettimeofday () -. s.sent_at.(seq) };
    s.completed <- s.completed + 1;
    s.inflight <- s.inflight - 1;
    if s.completed >= s.rounds then conclude s else top_up s
  end

(* every Busy bounce re-queues a Ready; the budget caps how much
   bouncing the session absorbs before the remaining rounds are lost *)
let on_busy s =
  s.busy <- s.busy + 1;
  s.inflight <- s.inflight - 1;
  if s.busy > s.cfg.attempts * max s.rounds 1 then conclude s
  else begin
    cancel s s.backoff;
    s.backoff <-
      Some
        (Evloop.after s.loop (backoff_delay s.cfg ~attempt:(min s.busy 8))
           (fun () -> s.backoff <- None; top_up s));
    top_up s
  end

let pp msg = Format.asprintf "%a" Codec.pp_msg msg

let on_msg s msg =
  if s.phase = Running then s.consec_timeouts <- 0;
  match s.phase, msg with
  | Ended, _ -> ()
  | _, Codec.Denied { cause; detail } ->
    (* a typed lifecycle outcome, not a violation: refused in place of
       the Welcome, or cut mid-window with the completed prefix kept *)
    s.denied <- Some (cause, detail);
    conclude s
  | Welcome, Codec.Welcome { window } when window > s.window ->
    violation s "gateway granted window %d > requested %d" window s.window
  | Welcome, Codec.Welcome { window } ->
    s.granted <- window;
    s.phase <- Up;
    cancel s s.deadline;
    s.on_up ();
    if s.started then start s
  | Welcome, Codec.Busy reason -> violation s "gateway refused session: %s" reason
  | Welcome, m -> violation s "expected Welcome, got %s" (pp m)
  | Up, m -> violation s "unsolicited %s before the rounds started" (pp m)
  | Running, Codec.Request { challenge; args } when s.legacy ->
    on_request s s.requested challenge args
  | Running, Codec.Request_seq { seq; challenge; args } when not s.legacy ->
    on_request s seq challenge args
  | Running, Codec.Verdict { accepted; findings } when s.legacy ->
    on_verdict s s.completed accepted findings
  | Running, Codec.Verdict_seq { seq; accepted; findings } when not s.legacy ->
    on_verdict s seq accepted findings
  | Running, Codec.Busy _ -> on_busy s
  | Running, m ->
    violation s "unexpected gateway frame %s in %s session" (pp m)
      (if s.legacy then "legacy" else "pipelined")

let failed_round =
  { p_accepted = false; p_findings = [ ("client", "round never completed") ];
    p_latency = Float.nan }

let open_session ~loop ?(config = default_config) ?(on_up = ignore) ~on_done
    ~greeting ~respond ~device_id ~rounds conn =
  if rounds < 0 then invalid_arg "Client.open_session: rounds < 0";
  if config.attempts < 1 then invalid_arg "Client.open_session: attempts < 1";
  let legacy, window, hello =
    match greeting with
    | Legacy -> (true, 1, Codec.Hello { device_id })
    | Windowed { window; firmware } ->
      if window < 1 then invalid_arg "Client.open_session: window < 1";
      (false, window, Codec.Hello_ex { device_id; window; firmware })
  in
  let s =
    { loop; cfg = config; legacy; window; rounds; respond; on_up; on_done;
      ev = None; phase = (if legacy then Up else Welcome); started = false;
      send_closed = false; granted = (if legacy then 1 else 0); denied = None;
      results = Array.make rounds failed_round;
      landed = Array.make rounds false;
      sent_at = Array.make rounds Float.nan;
      requested = 0; completed = 0; inflight = 0; busy = 0; timeouts = 0;
      consec_timeouts = 0; deadline = None; backoff = None }
  in
  let ev =
    Evconn.attach ~loop
      ~on_msg:(fun _ msg -> on_msg s msg)
      ~on_eof:(fun _ -> finish s (Error Closed))
      ~on_error:(fun ev e ->
        if s.phase = Ended then Evconn.close ev
        else if e = `Send_closed then
          (* the gateway closed first: stop sending but read on to
             end-of-stream, so the verdicts and the Denied it queued
             before the close are still filed *)
          s.send_closed <- true
        else finish s (Error (Violation (Evconn.error_to_string e))))
      conn
  in
  s.ev <- Some ev;
  Evconn.send ev hello;
  if legacy then on_up () else arm_deadline s;
  s

(* The blocking drivers: one session on a private loop, run on the
   caller's thread until its connection is closed. *)
let run_session ?config ~greeting ?respond ~device ~device_id ~rounds conn =
  let respond =
    match respond with
    | Some f -> f
    | None -> fun ~seq:_ req -> fst (C.Protocol.prover_execute (device ()) req)
  in
  let loop = Evloop.create () in
  let outcome = ref (Error Closed) in
  Fun.protect ~finally:(fun () -> Evloop.close loop) (fun () ->
      let s =
        open_session ~loop ?config ~greeting ~respond ~device_id ~rounds
          ~on_done:(fun o -> outcome := o) conn
      in
      (* a raising [respond] leaves the connection attached: detach it
         before the loop's descriptors go *)
      Fun.protect ~finally:(fun () -> Option.iter Evconn.close s.ev)
        (fun () -> start s; Evloop.run loop ~stop:(fun () -> is_closed s)));
  match !outcome with
  | Ok p -> p
  | Error Closed -> raise Transport.Closed
  | Error (Violation m) -> raise (Protocol_violation m)

let attest_rounds ?config ~device ~device_id ~rounds conn =
  run_session ?config ~greeting:Legacy ~device ~device_id ~rounds conn

let attest_pipelined ?config ?(window = 8) ?(firmware = "") ?respond ~device
    ~device_id ~rounds conn =
  run_session ?config ~greeting:(Windowed { window; firmware }) ?respond
    ~device ~device_id ~rounds conn
