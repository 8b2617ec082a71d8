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

type round = {
  attempt : int;
  accepted : bool;
  findings : (string * string) list;
  run : A.Device.run_result option;
}

exception Protocol_violation of string

exception Denied of Codec.denial * string
(* the gateway's lifecycle registry refused or cut the session: a typed
   outcome, not a protocol violation — revoked / quarantined / stale
   firmware / unknown device *)

let violation fmt = Printf.ksprintf (fun s -> raise (Protocol_violation s)) fmt

let recv_msg cfg chan =
  match Chan.recv chan ?deadline:cfg.read_deadline () with
  | Ok (Some msg) -> Some msg
  | Ok None -> raise Transport.Closed
  | Error e -> violation "undecodable gateway frame: %s" (Chan.error_to_string e)
  | exception Transport.Timeout -> None

(* The gateway sends a lifecycle [Denied] and then closes the
   connection; a client mid-write can observe the close before it has
   read the pending frame. On a closed send, drain whatever the gateway
   managed to queue and surface the typed denial if one is there. The
   frames queued ahead of it go to [on_frame]: verdicts the gateway sent
   before the cut were delivered and still count. *)
let drain_denial ?(on_frame = ignore) chan =
  let rec go () =
    match Chan.recv chan ~deadline:0.2 () with
    | Ok (Some (Codec.Denied { cause; detail })) -> Some (cause, detail)
    | Ok (Some msg) -> on_frame msg; go ()
    | Ok None | Error _ -> None
    | exception Transport.Timeout -> None
    | exception Transport.Closed -> None
  in
  go ()

(* One attempt at one round. [`Retry] covers Busy and reply timeouts —
   transient by construction; anything else either concludes the round
   or is a protocol violation. *)
let try_round cfg chan device =
  let send msg =
    try Chan.send chan msg
    with Transport.Closed ->
      (match drain_denial chan with
       | Some (cause, detail) -> raise (Denied (cause, detail))
       | None -> raise Transport.Closed)
  in
  send Codec.Ready;
  match recv_msg cfg chan with
  | None | Some (Codec.Busy _) -> `Retry
  | Some (Codec.Denied { cause; detail }) -> raise (Denied (cause, detail))
  | Some (Codec.Request { challenge; args }) ->
    let req = { C.Protocol.challenge; args } in
    let report, run = C.Protocol.prover_execute (device ()) req in
    let report =
      match cfg.mangle with None -> report | Some f -> f report
    in
    send (Codec.Report (A.Wire.encode report));
    (match recv_msg cfg chan with
     | None -> `Retry
     | Some (Codec.Verdict { accepted; findings }) ->
       `Done (accepted, findings, Some run)
     | Some (Codec.Busy _) -> `Retry
     | Some (Codec.Denied { cause; detail }) -> raise (Denied (cause, detail))
     | Some other ->
       violation "expected Verdict, got %s"
         (Format.asprintf "%a" Codec.pp_msg other))
  | Some other ->
    violation "expected Request, got %s"
      (Format.asprintf "%a" Codec.pp_msg other)

let attest_rounds ?(config = default_config) ~device ~device_id ~rounds conn =
  if rounds < 0 then invalid_arg "Client.attest_rounds: rounds < 0";
  if config.attempts < 1 then invalid_arg "Client.attest_rounds: attempts < 1";
  let chan = Chan.create conn in
  Chan.send chan (Codec.Hello { device_id });
  let one_round () =
    let rec go attempt =
      match try_round config chan device with
      | `Done (accepted, findings, run) -> { attempt; accepted; findings; run }
      | `Retry when attempt >= config.attempts ->
        { attempt; accepted = false; findings = []; run = None }
      | `Retry ->
        Thread.delay (backoff_delay config ~attempt);
        go (attempt + 1)
    in
    go 1
  in
  let results = List.init rounds (fun _ -> one_round ()) in
  (try Chan.send chan Codec.Bye with Transport.Closed -> ());
  results

(* ------------------------------------------------------------------ *)
(* Pipelined sessions: negotiate a window with Hello_ex/Welcome, keep
   up to [granted] rounds in flight, and tolerate out-of-order
   completion — the gateway pushes Verdict#seq frames as the fleet
   engine finishes them, and Request#seq frames may interleave with
   verdicts for earlier rounds. One thread, one connection: the loop
   alternates "top up the window with Ready" and "react to the next
   server frame". *)

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
      (* set when the gateway's lifecycle registry refused the session
         at handshake (granted = 0, no rounds ran) or cut it mid-window
         (the completed prefix of [results] is preserved — which is how
         revocation-to-quarantine latency is measured in rounds) *)
}

let failed_round detail =
  { p_accepted = false; p_findings = [ ("client", detail) ];
    p_latency = Float.nan }

let attest_pipelined ?(config = default_config) ?(window = 8) ?(firmware = "")
    ?respond ~device ~device_id ~rounds conn =
  if rounds < 0 then invalid_arg "Client.attest_pipelined: rounds < 0";
  if window < 1 then invalid_arg "Client.attest_pipelined: window < 1";
  if config.attempts < 1 then
    invalid_arg "Client.attest_pipelined: attempts < 1";
  let respond =
    match respond with
    | Some f -> f
    | None ->
      fun ~seq:_ req -> fst (C.Protocol.prover_execute (device ()) req)
  in
  let chan = Chan.create conn in
  Chan.send chan (Codec.Hello_ex { device_id; window; firmware });
  let denied = ref None in
  let granted =
    match recv_msg config chan with
    | Some (Codec.Welcome { window = w }) ->
      if w > window then
        violation "gateway granted window %d > requested %d" w window;
      w
    | Some (Codec.Denied { cause; detail }) ->
      denied := Some (cause, detail);
      0
    | Some (Codec.Busy reason) -> violation "gateway refused session: %s" reason
    | None -> violation "no Welcome from gateway (timeout)"
    | Some other ->
      violation "expected Welcome, got %s"
        (Format.asprintf "%a" Codec.pp_msg other)
  in
  if !denied <> None then
    { granted = 0; results = [||]; busy_bounces = 0; reply_timeouts = 0;
      denied = !denied }
  else begin
  let results = Array.make rounds (failed_round "round never completed") in
  let landed = Array.make rounds false in
  let sent_at : (int, float) Hashtbl.t = Hashtbl.create (2 * granted) in
  let completed = ref 0 in
  let inflight = ref 0 in
  let busy = ref 0 in
  let timeouts = ref 0 in
  (* every Busy bounce re-queues a Ready; this caps how much bouncing we
     absorb before declaring the remaining rounds lost *)
  let busy_budget = config.attempts * max rounds 1 in
  let consecutive_timeouts = ref 0 in
  let give_up = ref false in
  let land_verdict seq accepted findings =
    if seq >= rounds then
      violation "Verdict for sequence %d beyond %d rounds" seq rounds;
    if landed.(seq) then violation "duplicate Verdict for sequence %d" seq;
    landed.(seq) <- true;
    let latency =
      match Hashtbl.find_opt sent_at seq with
      | Some t0 -> Unix.gettimeofday () -. t0
      | None -> Float.nan
    in
    Hashtbl.remove sent_at seq;
    results.(seq) <- { p_accepted = accepted; p_findings = findings;
                       p_latency = latency };
    incr completed;
    decr inflight
  in
  (* same close-vs-write race as the legacy path: a mid-session cut
     lands as [Denied]+close, and our next send may lose the race *)
  let send_or_denied msg =
    try Chan.send chan msg; true
    with Transport.Closed ->
      let on_frame = function
        | Codec.Verdict_seq { seq; accepted; findings } ->
          land_verdict seq accepted findings
        | _ -> ()
      in
      (match drain_denial ~on_frame chan with
       | Some d -> denied := Some d; false
       | None -> raise Transport.Closed)
  in
  while (not !give_up) && !denied = None && !completed < rounds do
    while
      !denied = None && !inflight < granted
      && !completed + !inflight < rounds
    do
      if send_or_denied Codec.Ready then incr inflight
    done;
    if !denied <> None then ()
    else
    match recv_msg config chan with
    | None ->
      incr timeouts;
      incr consecutive_timeouts;
      if !consecutive_timeouts >= config.attempts then give_up := true
    | Some (Codec.Request_seq { seq; challenge; args }) ->
      consecutive_timeouts := 0;
      if seq >= rounds then
        violation "Request for sequence %d beyond %d rounds" seq rounds;
      let report = respond ~seq { C.Protocol.challenge; args } in
      let report =
        match config.mangle with None -> report | Some f -> f report
      in
      Hashtbl.replace sent_at seq (Unix.gettimeofday ());
      ignore
        (send_or_denied (Codec.Report_seq { seq; wire = A.Wire.encode report })
         : bool)
    | Some (Codec.Verdict_seq { seq; accepted; findings }) ->
      consecutive_timeouts := 0;
      land_verdict seq accepted findings
    | Some (Codec.Busy _) ->
      consecutive_timeouts := 0;
      incr busy;
      decr inflight;
      if !busy > busy_budget then give_up := true
      else Thread.delay (backoff_delay config ~attempt:(min !busy 8))
    | Some (Codec.Denied { cause; detail }) ->
      (* revoked (or quarantined) mid-session: the gateway cut the
         window before the next verdict. Keep the completed prefix —
         rounds still in flight never conclude. *)
      denied := Some (cause, detail)
    | Some other ->
      violation "unexpected gateway frame %s in pipelined session"
        (Format.asprintf "%a" Codec.pp_msg other)
  done;
  (try Chan.send chan Codec.Bye with Transport.Closed -> ());
  { granted; results; busy_bounces = !busy; reply_timeouts = !timeouts;
    denied = !denied }
  end
