module C = Dialed_core
module A = Dialed_apex

type config = {
  clients : int;
  rounds : int;
  window : int;
  concurrency : int;
  device_prefix : string;
  distinct_logs : int;
  firmware : int -> string;
  client : Client.config;
}

let default_config =
  { clients = 100; rounds = 4; window = 8; concurrency = 16;
    device_prefix = "swarm"; distinct_logs = 0; firmware = (fun _ -> "");
    client = { Client.default_config with Client.read_deadline = Some 30.0 } }

type outcome = {
  clients_run : int;
  clients_failed : int;
  clients_denied : int;
  denied_by_cause : (string * int) list;  (* sorted by cause name *)
  rounds_accepted : int;
  rounds_rejected : int;
  busy_bounces : int;
  reply_timeouts : int;
  wall_seconds : float;
  throughput : float;
  clients_per_thread : int;  (* sessions each worker holds at once *)
  latencies : float array;   (* sorted, finite only *)
}

let percentile sorted p =
  let n = Array.length sorted in
  (* 0 rather than nan: the outcome is serialized to JSON *)
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.of_int (n - 1) *. p /. 100.0 +. 0.5) in
    sorted.(max 0 (min (n - 1) idx))

let latency_p outcome p = percentile outcome.latencies p

let cheap_responder ~build () =
  (* One real operation execution per prover, then SW-Att alone per
     challenge: the per-round prover cost collapses to an HMAC pass, so
     on a small host the verifier side — not the simulated fleet — is
     what saturates. Re-attesting the standing run result under each
     fresh challenge is exactly what a deployed device does between
     operation invocations. *)
  let dev = ref None in
  fun ~seq:_ (req : C.Protocol.request) ->
    let d =
      match !dev with
      | Some d -> d
      | None ->
        let d = build () in
        ignore (A.Device.run_operation ~args:req.C.Protocol.args d : A.Device.run_result);
        dev := Some d;
        d
    in
    A.Device.attest d ~challenge:req.C.Protocol.challenge

type client_result =
  | Finished of Client.pipelined
  | Died of string

let aggregate ~clients ~clients_per_thread ~wall results =
  let accepted = ref 0 and rejected = ref 0 in
  let busy = ref 0 and timeouts = ref 0 and failed = ref 0 in
  let denied = ref 0 in
  let causes : (string, int ref) Hashtbl.t = Hashtbl.create 4 in
  let lats = ref [] in
  Array.iter
    (function
      | Died _ -> incr failed
      | Finished s ->
        busy := !busy + s.Client.busy_bounces;
        timeouts := !timeouts + s.Client.reply_timeouts;
        (match s.Client.denied with
         | None -> ()
         | Some (cause, _) ->
           incr denied;
           let key = Codec.denial_to_string cause in
           (match Hashtbl.find_opt causes key with
            | Some r -> incr r
            | None -> Hashtbl.add causes key (ref 1)));
        Array.iter
          (fun (r : Client.pipelined_round) ->
             (* on a denied (cut) session only the completed prefix
                counts: rounds the cut orphaned never got a verdict and
                are neither accepted nor rejected *)
             let counted =
               s.Client.denied = None || Float.is_finite r.Client.p_latency
             in
             if counted then begin
               if r.Client.p_accepted then incr accepted else incr rejected;
               if Float.is_finite r.Client.p_latency then
                 lats := r.Client.p_latency :: !lats
             end)
          s.Client.results)
    results;
  let latencies = Array.of_list !lats in
  Array.sort compare latencies;
  let denied_by_cause =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) causes []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let completed = !accepted + !rejected in
  { clients_run = clients;
    clients_failed = !failed;
    clients_denied = !denied;
    denied_by_cause;
    rounds_accepted = !accepted;
    rounds_rejected = !rejected;
    busy_bounces = !busy;
    reply_timeouts = !timeouts;
    wall_seconds = wall;
    throughput = (if wall > 0.0 then float_of_int completed /. wall else 0.0);
    clients_per_thread;
    latencies }

(* ------------------------------------------------------------------ *)
(* The driver: N provers over M worker threads, each worker an {!Evloop}
   driving its share of the provers as non-blocking state machines over
   {!Evconn}. This is how the swarm *holds* sessions instead of merely
   completing them: all [clients] connections stay open at once — the
   c10k load shape.

   A cross-worker barrier after dial + Hello_ex/Welcome makes the hold
   real: no prover starts its rounds until every prover (or its corpse)
   has a session, so the gateway's [connections_peak] must reach
   [clients].

   Each prover mirrors {!Client.attest_pipelined} exactly — window
   top-up with Ready, Report_seq on challenge, Verdict_seq bookkeeping,
   Busy backoff with the same jittered delays (as loop timers instead
   of [Thread.delay]), per-reply deadlines (as loop timers instead of
   blocking recv deadlines), and the same consecutive-timeout and
   busy-budget give-up rules. *)

type mx_phase =
  | Mx_welcome            (* Hello_ex sent, awaiting Welcome *)
  | Mx_barrier            (* session up, holding for the fleet *)
  | Mx_running
  | Mx_done

type mx_prover = {
  mx_i : int;
  mx_cfg : Client.config;
  mx_rounds : int;
  mx_req_window : int;
  mx_respond : seq:int -> C.Protocol.request -> A.Pox.report;
  mutable mx_phase : mx_phase;
  mutable mx_ev : Evconn.t option;
  mutable mx_granted : int;
  mutable mx_denied : (Codec.denial * string) option;
  mx_results : Client.pipelined_round array;
  mx_landed : bool array;
  mx_sent_at : (int, float) Hashtbl.t;
  mutable mx_completed : int;
  mutable mx_inflight : int;
  mutable mx_busy : int;
  mutable mx_timeouts : int;
  mutable mx_consec_timeouts : int;
  mutable mx_backing_off : bool;
  mutable mx_deadline : Evloop.timer option;
  mutable mx_backoff : Evloop.timer option;
}

(* All provers (alive or dead) check in once; the last one releases
   every worker's loop. Workers register their release thunk before
   dialing anything, so release can never race a missing worker. *)
type mx_barrier = {
  bar_m : Mutex.t;
  bar_total : int;
  mutable bar_arrived : int;
  mutable bar_released : bool;
  mutable bar_release : (unit -> unit) list;
}

let mx_register bar thunk =
  Mutex.lock bar.bar_m;
  let released = bar.bar_released in
  if not released then bar.bar_release <- thunk :: bar.bar_release;
  Mutex.unlock bar.bar_m;
  if released then thunk ()

let mx_arrive bar =
  Mutex.lock bar.bar_m;
  bar.bar_arrived <- bar.bar_arrived + 1;
  let release =
    if bar.bar_arrived >= bar.bar_total && not bar.bar_released then begin
      bar.bar_released <- true;
      let r = bar.bar_release in
      bar.bar_release <- [];
      r
    end
    else []
  in
  Mutex.unlock bar.bar_m;
  List.iter (fun f -> f ()) release

let run ?(config = default_config) ~dial ~respond () =
  if config.clients < 0 then invalid_arg "Swarm.run: clients < 0";
  if config.concurrency < 1 then invalid_arg "Swarm.run: concurrency < 1";
  if config.rounds < 0 then invalid_arg "Swarm.run: rounds < 0";
  if config.client.Client.attempts < 1 then
    invalid_arg "Swarm.run: attempts < 1";
  let n = config.clients in
  let workers = max 1 (min config.concurrency (max n 1)) in
  let clients_per_thread = (n + workers - 1) / workers in
  let results = Array.make n (Died "never ran") in
  let bar =
    { bar_m = Mutex.create (); bar_total = n; bar_arrived = 0;
      bar_released = false; bar_release = [] }
  in
  let worker w =
    let loop = Evloop.create () in
    let mine = ref [] in
    for i = n - 1 downto 0 do
      if i mod workers = w then mine := i :: !mine
    done;
    let remaining = ref (List.length !mine) in
    let cancel_timers p =
      (match p.mx_deadline with
       | Some tm -> Evloop.cancel loop tm; p.mx_deadline <- None
       | None -> ());
      match p.mx_backoff with
      | Some tm -> Evloop.cancel loop tm; p.mx_backoff <- None
      | None -> ()
    in
    let die p detail =
      if p.mx_phase = Mx_done then
        (* a finished prover's Bye met a connection the gateway already
           closed (it denied the session): nothing is left to flush, and
           an unclosed connection would hold the worker loop forever *)
        Option.iter Evconn.close p.mx_ev
      else begin
        let at_barrier = p.mx_phase = Mx_welcome in
        p.mx_phase <- Mx_done;
        cancel_timers p;
        (match p.mx_ev with Some ev -> Evconn.close ev | None -> ());
        results.(p.mx_i) <- Died detail;
        decr remaining;
        (* a corpse still checks in, or the fleet waits forever *)
        if at_barrier then mx_arrive bar
      end
    in
    let finish p =
      if p.mx_phase <> Mx_done then begin
        p.mx_phase <- Mx_done;
        cancel_timers p;
        results.(p.mx_i) <-
          Finished
            { Client.granted = p.mx_granted; results = p.mx_results;
              busy_bounces = p.mx_busy; reply_timeouts = p.mx_timeouts;
              denied = p.mx_denied };
        (match p.mx_ev with
         | Some ev ->
           Evconn.send ev Codec.Bye;
           Evconn.close_after_flush ev
         | None -> ());
        decr remaining
      end
    in
    let rec arm_deadline p =
      match p.mx_cfg.Client.read_deadline with
      | None -> ()
      | Some d ->
        (match p.mx_deadline with
         | Some tm -> Evloop.cancel loop tm
         | None -> ());
        p.mx_deadline <- Some (Evloop.after loop d (fun () -> on_deadline p))
    and disarm_deadline p =
      match p.mx_deadline with
      | Some tm -> Evloop.cancel loop tm; p.mx_deadline <- None
      | None -> ()
    and on_deadline p =
      p.mx_deadline <- None;
      match p.mx_phase with
      | Mx_done | Mx_barrier -> ()
      | Mx_welcome -> die p "protocol violation: no Welcome from gateway (timeout)"
      | Mx_running ->
        p.mx_timeouts <- p.mx_timeouts + 1;
        p.mx_consec_timeouts <- p.mx_consec_timeouts + 1;
        if p.mx_consec_timeouts >= p.mx_cfg.Client.attempts then finish p
        else arm_deadline p
    and top_up p =
      if p.mx_phase = Mx_running && not p.mx_backing_off then begin
        while
          p.mx_inflight < p.mx_granted
          && p.mx_completed + p.mx_inflight < p.mx_rounds
        do
          (match p.mx_ev with
           | Some ev -> Evconn.send ev Codec.Ready
           | None -> ());
          p.mx_inflight <- p.mx_inflight + 1
        done;
        if p.mx_inflight > 0 then arm_deadline p else disarm_deadline p
      end
    in
    let busy_budget p = p.mx_cfg.Client.attempts * max p.mx_rounds 1 in
    let on_msg p msg =
      match p.mx_phase, msg with
      | Mx_done, _ -> ()
      | _, Codec.Denied { cause; detail } ->
        (* a typed lifecycle denial, not a protocol violation: the
           gateway refused the handshake or cut the session mid-window.
           The prover counts as Finished-with-denied; if the denial
           landed where the Welcome would have, it still checks in at
           the barrier so the rest of the fleet is not held hostage. *)
        let at_handshake = p.mx_phase = Mx_welcome in
        p.mx_denied <- Some (cause, detail);
        finish p;
        if at_handshake then mx_arrive bar
      | Mx_welcome, Codec.Welcome { window = w } ->
        if w > p.mx_req_window then
          die p
            (Printf.sprintf
               "protocol violation: gateway granted window %d > requested %d"
               w p.mx_req_window)
        else begin
          p.mx_granted <- w;
          p.mx_phase <- Mx_barrier;
          disarm_deadline p;
          mx_arrive bar
        end
      | Mx_welcome, Codec.Busy reason ->
        die p ("protocol violation: gateway refused session: " ^ reason)
      | Mx_welcome, other ->
        die p
          (Printf.sprintf "protocol violation: expected Welcome, got %s"
             (Format.asprintf "%a" Codec.pp_msg other))
      | Mx_barrier, other ->
        (* nothing was requested; any frame here is hostile *)
        die p
          (Printf.sprintf "protocol violation: unsolicited %s at barrier"
             (Format.asprintf "%a" Codec.pp_msg other))
      | Mx_running, Codec.Request_seq { seq; challenge; args } ->
        p.mx_consec_timeouts <- 0;
        if seq >= p.mx_rounds then
          die p
            (Printf.sprintf
               "protocol violation: Request for sequence %d beyond %d rounds"
               seq p.mx_rounds)
        else begin
          let report = p.mx_respond ~seq { C.Protocol.challenge; args } in
          let report =
            match p.mx_cfg.Client.mangle with
            | None -> report
            | Some f -> f report
          in
          Hashtbl.replace p.mx_sent_at seq (Unix.gettimeofday ());
          (match p.mx_ev with
           | Some ev ->
             Evconn.send ev
               (Codec.Report_seq { seq; wire = A.Wire.encode report })
           | None -> ());
          if p.mx_inflight > 0 then arm_deadline p
        end
      | Mx_running, Codec.Verdict_seq { seq; accepted; findings } ->
        p.mx_consec_timeouts <- 0;
        if seq >= p.mx_rounds then
          die p
            (Printf.sprintf
               "protocol violation: Verdict for sequence %d beyond %d rounds"
               seq p.mx_rounds)
        else if p.mx_landed.(seq) then
          die p
            (Printf.sprintf
               "protocol violation: duplicate Verdict for sequence %d" seq)
        else begin
          p.mx_landed.(seq) <- true;
          let latency =
            match Hashtbl.find_opt p.mx_sent_at seq with
            | Some t0 -> Unix.gettimeofday () -. t0
            | None -> Float.nan
          in
          Hashtbl.remove p.mx_sent_at seq;
          p.mx_results.(seq) <-
            { Client.p_accepted = accepted; p_findings = findings;
              p_latency = latency };
          p.mx_completed <- p.mx_completed + 1;
          p.mx_inflight <- p.mx_inflight - 1;
          if p.mx_completed >= p.mx_rounds then finish p
          else begin
            top_up p;
            if p.mx_inflight > 0 then arm_deadline p else disarm_deadline p
          end
        end
      | Mx_running, Codec.Busy _ ->
        p.mx_consec_timeouts <- 0;
        p.mx_busy <- p.mx_busy + 1;
        p.mx_inflight <- p.mx_inflight - 1;
        if p.mx_busy > busy_budget p then finish p
        else begin
          p.mx_backing_off <- true;
          let delay =
            Client.backoff_delay p.mx_cfg ~attempt:(min p.mx_busy 8)
          in
          (match p.mx_backoff with
           | Some tm -> Evloop.cancel loop tm
           | None -> ());
          p.mx_backoff <-
            Some
              (Evloop.after loop delay (fun () ->
                   p.mx_backoff <- None;
                   p.mx_backing_off <- false;
                   top_up p))
        end
      | Mx_running, other ->
        die p
          (Printf.sprintf
             "protocol violation: unexpected gateway frame %s in \
              pipelined session"
             (Format.asprintf "%a" Codec.pp_msg other))
    in
    let provers = ref [] in
    (* start every prover that made it to the barrier *)
    let release () =
      List.iter
        (fun p ->
           if p.mx_phase = Mx_barrier then begin
             p.mx_phase <- Mx_running;
             if p.mx_rounds = 0 then finish p else top_up p
           end)
        !provers
    in
    mx_register bar (fun () -> Evloop.post loop release);
    (* dial + Hello_ex for every prover this worker owns *)
    List.iter
      (fun i ->
         let device_id = Printf.sprintf "%s-%04d" config.device_prefix i in
         let shape =
           if config.distinct_logs <= 0 then i else i mod config.distinct_logs
         in
         let cfg =
           { config.client with
             Client.jitter_seed =
               Printf.sprintf "%s|%d" config.client.Client.jitter_seed i }
         in
         let p =
           { mx_i = i; mx_cfg = cfg; mx_rounds = config.rounds;
             mx_req_window = config.window;
             mx_respond = respond ~client:i ~shape;
             mx_phase = Mx_welcome; mx_ev = None; mx_granted = 0;
             mx_denied = None;
             mx_results =
               Array.make config.rounds
                 { Client.p_accepted = false;
                   p_findings = [ ("client", "round never completed") ];
                   p_latency = Float.nan };
             mx_landed = Array.make (max config.rounds 1) false;
             mx_sent_at = Hashtbl.create 16;
             mx_completed = 0; mx_inflight = 0; mx_busy = 0;
             mx_timeouts = 0; mx_consec_timeouts = 0; mx_backing_off = false;
             mx_deadline = None; mx_backoff = None }
         in
         provers := p :: !provers;
         match dial () with
         | exception e ->
           p.mx_phase <- Mx_done;
           results.(i) <- Died (Printexc.to_string e);
           decr remaining;
           mx_arrive bar
         | conn ->
           match
             Evconn.attach ~loop
               ~on_msg:(fun _ev msg -> on_msg p msg)
               ~on_eof:(fun _ev -> die p "connection closed by gateway")
               ~on_error:(fun _ev e ->
                 match e with
                 | `Send_closed -> die p "connection closed by gateway"
                 | e -> die p (Evconn.error_to_string e))
               conn
           with
           | exception e ->
             (try Transport.close conn with _ -> ());
             p.mx_phase <- Mx_done;
             results.(i) <- Died (Printexc.to_string e);
             decr remaining;
             mx_arrive bar
           | ev ->
             p.mx_ev <- Some ev;
             Evconn.send ev
               (Codec.Hello_ex
                  { device_id; window = config.window;
                    firmware = config.firmware i });
             arm_deadline p)
      !mine;
    (* run until every prover is done *and* its Bye has flushed *)
    let all_flushed () =
      List.for_all
        (fun p ->
           match p.mx_ev with None -> true | Some ev -> Evconn.is_closed ev)
        !provers
    in
    Evloop.run loop ~stop:(fun () -> !remaining = 0 && all_flushed ());
    List.iter
      (fun p -> match p.mx_ev with Some ev -> Evconn.close ev | None -> ())
      !provers;
    Evloop.close loop
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init workers (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  aggregate ~clients:n ~clients_per_thread ~wall results

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%d clients (%d failed, %d denied), \
     %d accepted / %d rejected rounds@,\
     %d busy bounces, %d reply timeouts@,\
     %.2f s wall, %.1f rounds/s, latency p50 %.1f ms p99 %.1f ms@]"
    o.clients_run o.clients_failed o.clients_denied
    o.rounds_accepted o.rounds_rejected
    o.busy_bounces o.reply_timeouts o.wall_seconds o.throughput
    (1000.0 *. latency_p o 50.0)
    (1000.0 *. latency_p o 99.0);
  if o.denied_by_cause <> [] then begin
    Format.fprintf ppf "@,@[<v2>denials by cause:";
    List.iter
      (fun (cause, n) -> Format.fprintf ppf "@,%s: %d" cause n)
      o.denied_by_cause;
    Format.fprintf ppf "@]"
  end

let outcome_to_json o =
  let denied =
    o.denied_by_cause
    |> List.map (fun (cause, n) -> Printf.sprintf "\"%s\": %d" cause n)
    |> String.concat ", "
  in
  Printf.sprintf
    "{ \"clients\": %d, \"clients_failed\": %d, \"clients_denied\": %d, \
     \"denied_by_cause\": { %s }, \
     \"rounds_accepted\": %d, \
     \"rounds_rejected\": %d, \"busy_bounces\": %d, \"reply_timeouts\": %d, \
     \"wall_seconds\": %.6f, \"throughput_rps\": %.3f, \
     \"clients_per_thread\": %d, \
     \"latency_p50_ms\": %.3f, \"latency_p90_ms\": %.3f, \
     \"latency_p99_ms\": %.3f }"
    o.clients_run o.clients_failed o.clients_denied denied
    o.rounds_accepted o.rounds_rejected
    o.busy_bounces o.reply_timeouts o.wall_seconds o.throughput
    o.clients_per_thread
    (1000.0 *. latency_p o 50.0)
    (1000.0 *. latency_p o 90.0)
    (1000.0 *. latency_p o 99.0)
