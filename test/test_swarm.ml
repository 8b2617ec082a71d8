(* Swarm load generation and pipelined/sequential equivalence: the
   windowed session machine must be observationally identical to the
   single-shot protocol (same verdicts, same per-session order), stay
   fair under a flooding peer, and keep its stats snapshot consistent
   while a swarm hammers it — over the loopback and over TCP. *)

module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module N = Dialed_net
module Swarm = Dialed_swarm.Swarm
module L = Dialed_lifecycle.Lifecycle
module Apps = Dialed_apps.Apps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fire_sensor = List.find (fun a -> a.Apps.name = "fire-sensor") Apps.all

let built =
  lazy
    (let compiled =
       Dialed_minic.Minic.compile ~entry:fire_sensor.Apps.entry
         fire_sensor.Apps.source
     in
     C.Pipeline.build ~variant:C.Pipeline.Full
       ~data:compiled.Dialed_minic.Minic.data
       ~op:compiled.Dialed_minic.Minic.op
       ~or_min:fire_sensor.Apps.or_min ())

let make_device () =
  let d = C.Pipeline.device (Lazy.force built) in
  fire_sensor.Apps.setup d;
  d

let gateway_config =
  { N.Server.default_config with
    N.Server.domains = 1; window = 4; read_deadline = Some 5.0;
    max_conns = 128; args = fire_sensor.Apps.benign_args }

let with_gateway ?(config = gateway_config) ~transport f =
  let plan = F.Plan.of_built (Lazy.force built) in
  let listener, dial = Test_net.listen transport in
  let server = N.Server.create ~config ~plan listener in
  N.Server.start server;
  Fun.protect
    ~finally:(fun () -> ignore (N.Server.stop server))
    (fun () -> f ~server ~dial)

let client_config =
  { N.Client.default_config with
    N.Client.read_deadline = Some 5.0; backoff_base = 0.01;
    backoff_cap = 0.05 }

let flip_or_data (r : A.Pox.report) =
  let b = Bytes.of_string r.A.Pox.or_data in
  let j = Bytes.length b / 2 in
  Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 0x01));
  { r with A.Pox.or_data = Bytes.to_string b }

(* --------------------------------------------------------------- *)
(* Property: a pipelined session and a sequence of single-shot rounds
   with the same per-round tampering produce the same per-round
   verdicts, in the same per-session order, for any window size.     *)

let round_key accepted findings =
  (accepted, List.sort compare (List.map fst findings))

let sequential_run ~dial ~tamper rounds =
  let conn = dial () in
  let i = ref 0 in
  let mangle r =
    let k = !i in
    incr i;
    if tamper.(k) then flip_or_data r else r
  in
  let config =
    { client_config with N.Client.attempts = 1; mangle = Some mangle }
  in
  let out =
    N.Client.attest_rounds ~config ~device:make_device
      ~device_id:"dev-seq" ~rounds conn
  in
  N.Transport.close conn;
  Array.to_list
    (Array.map
       (fun (r : N.Client.pipelined_round) ->
          round_key r.N.Client.p_accepted r.N.Client.p_findings)
       out.N.Client.results)

let pipelined_run ~dial ~tamper ~window rounds =
  let conn = dial () in
  let respond ~seq req =
    let report, _ = C.Protocol.prover_execute (make_device ()) req in
    if tamper.(seq) then flip_or_data report else report
  in
  let session =
    N.Client.attest_pipelined ~config:client_config ~window ~respond
      ~device:make_device ~device_id:"dev-pipe" ~rounds conn
  in
  N.Transport.close conn;
  Array.to_list
    (Array.map
       (fun (r : N.Client.pipelined_round) ->
          round_key r.N.Client.p_accepted r.N.Client.p_findings)
       session.N.Client.results)

let prop_pipelined_equals_sequential (tag, transport) =
  QCheck.Test.make
    ~name:
      ("pipelined session = sequential single-shot (verdicts and order) ["
       ^ tag ^ "]")
    ~count:8
    QCheck.(pair (int_range 1 5) (list_of_size (Gen.int_range 1 6) bool))
    (fun (window, tamper_list) ->
       let rounds = List.length tamper_list in
       let tamper = Array.of_list tamper_list in
       with_gateway ~transport (fun ~server:_ ~dial ->
           let seq = sequential_run ~dial ~tamper rounds in
           let pipe = pipelined_run ~dial ~tamper ~window rounds in
           seq = pipe))

(* With the cheap responder each prover's reports share one execution,
   but every report is still individually replayed by the engine:
   batch_size = clients * rounds, not clients. *)
let test_swarm_engine_sees_all_reports transport =
  with_gateway ~transport (fun ~server ~dial ->
      let config =
        { Swarm.default_config with
          Swarm.clients = 3; rounds = 2; window = 2; concurrency = 3;
          client = client_config }
      in
      let respond ~client:_ ~shape:_ =
        Swarm.cheap_responder ~build:make_device ()
      in
      let outcome = Swarm.run ~config ~dial ~respond () in
      check_int "all accepted" 6 outcome.Swarm.rounds_accepted;
      let stats = N.Server.stop server in
      check_int "engine saw every report" 6
        stats.N.Server.verify.F.Metrics.batch_size)

(* --------------------------------------------------------------- *)
(* Fairness: per-session rate limiting lands on the flooder, never on
   the honest provers sharing the gateway.                           *)

let test_fairness_flooder_vs_honest transport =
  let config =
    { gateway_config with N.Server.rate = Some 4.0; burst = 2.0 }
  in
  with_gateway ~config ~transport (fun ~server ~dial ->
      let honest_failures = Atomic.make 0 in
      let honest_busy = Atomic.make 0 in
      let honest n =
        Thread.create
          (fun () ->
             let conn = dial () in
             match
               N.Client.attest_pipelined ~config:client_config ~window:2
                 ~device:make_device
                 ~device_id:(Printf.sprintf "dev-honest-%d" n) ~rounds:2 conn
             with
             | session ->
               N.Transport.close conn;
               Atomic.fetch_and_add honest_busy
                 session.N.Client.busy_bounces |> ignore;
               if
                 not
                   (Array.for_all
                      (fun (r : N.Client.pipelined_round) ->
                         r.N.Client.p_accepted)
                      session.N.Client.results)
               then Atomic.incr honest_failures
             | exception _ ->
               N.Transport.close conn;
               Atomic.incr honest_failures)
          ()
      in
      (* the flooder spams Ready far over its own token bucket and
         counts the Busy bounces it gets back *)
      let flooder_busy = ref 0 in
      let flooder =
        Thread.create
          (fun () ->
             let p = Peer.create (dial ()) in
             Peer.send p
               (N.Codec.Hello_ex { device_id = "dev-flood"; window = 8; firmware = "" });
             (match Peer.recv ~deadline:5.0 p with
              | `Msg (N.Codec.Welcome _) -> ()
              | _ -> Alcotest.fail "flooder got no Welcome");
             for _ = 1 to 30 do
               Peer.send p N.Codec.Ready
             done;
             for _ = 1 to 30 do
               match Peer.recv ~deadline:5.0 p with
               | `Msg (N.Codec.Busy _) -> incr flooder_busy
               | `Msg (N.Codec.Request_seq _) -> ()
               | _ -> Alcotest.fail "flooder lost its connection"
             done;
             Peer.close p)
          ()
      in
      let honests = List.init 4 honest in
      Thread.join flooder;
      List.iter Thread.join honests;
      check_int "every honest prover completed" 0
        (Atomic.get honest_failures);
      check_int "honest provers never bounced" 0 (Atomic.get honest_busy);
      check_bool "flooder was bounced" true (!flooder_busy > 0);
      let stats = N.Server.stop server in
      (* every rate-limit event the server counted was observed by the
         flooder: the defense never hit anyone else *)
      check_int "rate_limited lands only on the flooder" !flooder_busy
        (stats.N.Server.rate_limited + stats.N.Server.window_overflow))

(* --------------------------------------------------------------- *)
(* Stats under concurrency: poll the snapshot while a swarm runs and
   assert cross-counter invariants in every observation.             *)

let test_stats_snapshot_consistent_under_load transport =
  with_gateway ~transport (fun ~server ~dial ->
      let stop_polling = Atomic.make false in
      let violations = ref [] in
      let polls = ref 0 in
      let last_requests = ref 0 in
      let poller =
        Thread.create
          (fun () ->
             while not (Atomic.get stop_polling) do
               let s = N.Server.stats server in
               incr polls;
               let bad what = violations := what :: !violations in
               if
                 s.N.Server.verdicts_accepted + s.N.Server.verdicts_rejected
                 > s.N.Server.reports_received
               then bad "verdicts > reports";
               if s.N.Server.reports_received > s.N.Server.requests_issued
               then bad "reports > requests (honest swarm)";
               if s.N.Server.requests_issued < !last_requests then
                 bad "requests_issued went backwards";
               last_requests := s.N.Server.requests_issued;
               if s.N.Server.sessions_active > s.N.Server.connections_active
               then bad "sessions > connections";
               if s.N.Server.connections_active < 0 then
                 bad "negative active connections";
               Thread.yield ()
             done)
          ()
      in
      let config =
        { Swarm.default_config with
          Swarm.clients = 16; rounds = 3; window = 4; concurrency = 8;
          client = client_config }
      in
      let respond ~client:_ ~shape:_ =
        Swarm.cheap_responder ~build:make_device ()
      in
      let outcome = Swarm.run ~config ~dial ~respond () in
      Atomic.set stop_polling true;
      Thread.join poller;
      check_int "swarm completed clean" 0 outcome.Swarm.clients_failed;
      check_int "all rounds accepted" 48 outcome.Swarm.rounds_accepted;
      check_bool "poller actually ran" true (!polls > 0);
      (match !violations with
       | [] -> ()
       | v -> Alcotest.failf "stats invariants violated: %s"
                (String.concat ", " v));
      (* final snapshot adds up *)
      let s = N.Server.stop server in
      check_int "every report got a verdict" s.N.Server.reports_received
        (s.N.Server.verdicts_accepted + s.N.Server.verdicts_rejected))

(* --------------------------------------------------------------- *)
(* Swarm smoke: every session held open simultaneously by a few
   evloop-driven worker threads — the c10k load shape, scaled down.   *)

let test_swarm_multiplexed transport =
  with_gateway ~transport (fun ~server ~dial ->
      let config =
        { Swarm.default_config with
          Swarm.clients = 12; rounds = 3; window = 4; concurrency = 4;
          client = client_config }
      in
      let respond ~client:_ ~shape:_ =
        Swarm.cheap_responder ~build:make_device ()
      in
      let outcome = Swarm.run ~config ~dial ~respond () in
      check_int "no client failed" 0 outcome.Swarm.clients_failed;
      check_int "all rounds accepted" 36 outcome.Swarm.rounds_accepted;
      check_int "nothing rejected" 0 outcome.Swarm.rounds_rejected;
      check_int "sessions multiplexed per thread" 3
        outcome.Swarm.clients_per_thread;
      check_bool "throughput measured" true (outcome.Swarm.throughput > 0.0);
      check_int "every latency recorded" 36
        (Array.length outcome.Swarm.latencies);
      check_bool "p99 >= p50" true
        (Swarm.latency_p outcome 99.0 >= Swarm.latency_p outcome 50.0);
      let stats = N.Server.stop server in
      check_int "server agrees on accepts" 36
        stats.N.Server.verdicts_accepted;
      (* the start barrier held every session open before the first
         round was played *)
      check_bool "peak connections >= clients" true
        (stats.N.Server.connections_peak >= 12))

let test_swarm_multiplexed_tampered transport =
  with_gateway ~transport (fun ~server:_ ~dial ->
      let config =
        { Swarm.default_config with
          Swarm.clients = 4; rounds = 2; window = 2; concurrency = 2;
          client = client_config }
      in
      let respond ~client ~shape:_ =
        let inner = Swarm.cheap_responder ~build:make_device () in
        fun ~seq req ->
          let r = inner ~seq req in
          if client = 0 && seq = 0 then flip_or_data r else r
      in
      let outcome = Swarm.run ~config ~dial ~respond () in
      check_int "no client failed" 0 outcome.Swarm.clients_failed;
      check_int "one round rejected" 1 outcome.Swarm.rounds_rejected;
      check_int "rest accepted" 7 outcome.Swarm.rounds_accepted)

(* A prover the gateway denies at handshake finishes with its denial:
   the Bye it sends on the way out meets a connection the gateway has
   already closed, and that must not hold its worker loop open. *)
let test_swarm_denied_provers_finish transport =
  let lc = L.create ~allow_anonymous:false () in
  for i = 0 to 3 do
    match
      L.register lc ~id:(Printf.sprintf "deny-%04d" i)
        ~key_id:(Printf.sprintf "k-%d" i)
    with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  done;
  let config = { gateway_config with N.Server.lifecycle = Some lc } in
  with_gateway ~config ~transport (fun ~server:_ ~dial ->
      let config =
        { Swarm.default_config with
          Swarm.clients = 6; rounds = 2; window = 2; concurrency = 2;
          device_prefix = "deny"; client = client_config }
      in
      let respond ~client:_ ~shape:_ =
        Swarm.cheap_responder ~build:make_device ()
      in
      let outcome = Swarm.run ~config ~dial ~respond () in
      check_int "unregistered provers denied" 2 outcome.Swarm.clients_denied;
      check_int "no client failed" 0 outcome.Swarm.clients_failed;
      check_int "registered provers accepted" 8
        outcome.Swarm.rounds_accepted)

(* A swarm prover cut mid-window whose own send races the gateway's
   close: a scripted gateway answers Hello_ex with Welcome and each
   Ready with a Request#seq, then, while the prover answers round 1,
   sends the verdicts for rounds 0 and 1 and a Denied, and closes. The
   Report for round 1 meets the closed connection; the verdicts queued
   ahead of the denial were delivered and must count. *)
let test_swarm_cut_keeps_delivered_verdicts () =
  let gw = ref None in
  let gateway conn =
    let p = Peer.create conn in
    let rec serve seq =
      match Peer.recv ~deadline:5.0 p with
      | `Msg (N.Codec.Hello_ex _) ->
        Peer.send p (N.Codec.Welcome { window = 2 });
        serve seq
      | `Msg N.Codec.Ready ->
        Peer.send p
          (N.Codec.Request_seq
             { seq; challenge = Printf.sprintf "cut-%d" seq;
               args = fire_sensor.Apps.benign_args });
        serve (seq + 1)
      | `Msg _ -> serve seq
      | `Eof | `Error _ | `Timeout -> ()
    in
    serve 0;
    Peer.close p
  in
  let dial () =
    let conn, gw_end = N.Transport.loopback () in
    gw := Some (gw_end, Thread.create gateway gw_end);
    conn
  in
  let respond ~client:_ ~shape:_ ~seq req =
    (if seq = 1 then
       let gw_end, _ = Option.get !gw in
       List.iter (Peer.write_msg gw_end)
         [ N.Codec.Verdict_seq { seq = 0; accepted = true; findings = [] };
           N.Codec.Verdict_seq { seq = 1; accepted = true; findings = [] };
           N.Codec.Denied { cause = N.Codec.Revoked; detail = "key revoked" } ];
       N.Transport.close gw_end);
    fst (C.Protocol.prover_execute (make_device ()) req)
  in
  let config =
    { Swarm.default_config with
      Swarm.clients = 1; rounds = 4; window = 2; concurrency = 1;
      client = client_config }
  in
  let outcome = Swarm.run ~config ~dial ~respond () in
  Option.iter (fun (_, th) -> Thread.join th) !gw;
  check_int "no client failed" 0 outcome.Swarm.clients_failed;
  check_int "the cut counts as a denial" 1 outcome.Swarm.clients_denied;
  check_int "delivered verdicts count" 2 outcome.Swarm.rounds_accepted

let suites =
  [ ("net-swarm",
     List.map
       (fun t -> QCheck_alcotest.to_alcotest (prop_pipelined_equals_sequential t))
       Test_net.transports
     @ Test_net.over_transports
         [ ("engine sees every report", test_swarm_engine_sees_all_reports);
           ("flooder cannot starve honest provers",
            test_fairness_flooder_vs_honest);
           ("stats consistent under load",
            test_stats_snapshot_consistent_under_load);
           ("multiplexed swarm holds all sessions", test_swarm_multiplexed);
           ("multiplexed swarm surfaces rejections",
            test_swarm_multiplexed_tampered);
           ("denied provers finish", test_swarm_denied_provers_finish) ]
     @ [ Alcotest.test_case "cut keeps delivered verdicts" `Quick
           test_swarm_cut_keeps_delivered_verdicts ]) ]
