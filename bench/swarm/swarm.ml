open Dialed_net
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
   holding its share of the provers as {!Client} sessions. This is how
   the swarm *holds* sessions instead of merely completing them: all
   [clients] connections stay open at once — the c10k load shape.

   A cross-worker barrier after dial + Hello_ex/Welcome makes the hold
   real: no prover starts its rounds until every prover (or its corpse)
   has a session, so the gateway's [connections_peak] must reach
   [clients]. *)

(* All provers (alive or dead) check in once; the last one releases
   every worker's loop. Workers register their release thunk before
   dialing anything, so release can never race a missing worker. *)
type barrier = {
  bar_m : Mutex.t;
  bar_total : int;
  mutable bar_arrived : int;
  mutable bar_released : bool;
  mutable bar_release : (unit -> unit) list;
}

let register bar thunk =
  Mutex.lock bar.bar_m;
  let released = bar.bar_released in
  if not released then bar.bar_release <- thunk :: bar.bar_release;
  Mutex.unlock bar.bar_m;
  if released then thunk ()

let arrive bar =
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
    let sessions = ref [] and live = ref 0 in
    register bar (fun () ->
        Evloop.post loop (fun () -> List.iter Client.start !sessions));
    for i = 0 to n - 1 do
      if i mod workers = w then begin
        let shape =
          if config.distinct_logs <= 0 then i else i mod config.distinct_logs
        in
        let on_done outcome =
          decr live;
          results.(i) <-
            (match outcome with
             | Ok s -> Finished s
             | Error f -> Died (Client.failure_to_string f))
        in
        let open_session conn =
          try
            Client.open_session ~loop
              ~config:
                { config.client with
                  Client.jitter_seed =
                    Printf.sprintf "%s|%d" config.client.Client.jitter_seed i }
              ~on_up:(fun () -> arrive bar) ~on_done
              ~greeting:
                (Client.Windowed
                   { window = config.window; firmware = config.firmware i })
              ~respond:(respond ~client:i ~shape)
              ~device_id:(Printf.sprintf "%s-%04d" config.device_prefix i)
              ~rounds:config.rounds conn
          with e -> (try Transport.close conn with _ -> ()); raise e
        in
        match open_session (dial ()) with
        | s -> sessions := s :: !sessions; incr live
        | exception e ->
          (* a corpse still checks in, or the fleet waits forever *)
          results.(i) <- Died (Printexc.to_string e);
          arrive bar
      end
    done;
    (* run until every session has ended *and* its Bye has flushed *)
    Evloop.run loop ~stop:(fun () ->
        !live = 0 && List.for_all Client.is_closed !sessions);
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
