(* The framed attestation gateway: framing, codec, transports, rate
   limiting, and full server/client rounds over in-memory loopback and
   real Unix sockets — including a hostile-peer corpus the server must
   survive. *)

module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module N = Dialed_net
module Apps = Dialed_apps.Apps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------- *)
(* Framing.                                                        *)

let feed_ok d s =
  match N.Frame.feed d s with
  | Ok msgs -> msgs
  | Error e -> Alcotest.failf "feed: %s" (N.Frame.error_to_string e)

let test_frame_roundtrip () =
  let d = N.Frame.decoder () in
  let payloads = [ ""; "x"; String.make 1000 'p'; "tail" ] in
  let stream = String.concat "" (List.map N.Frame.encode payloads) in
  (* one big chunk *)
  check_bool "all at once" true (feed_ok d stream = payloads);
  (* byte by byte *)
  let d = N.Frame.decoder () in
  let out = ref [] in
  String.iter
    (fun ch -> out := !out @ feed_ok d (String.make 1 ch))
    stream;
  check_bool "byte by byte" true (!out = payloads);
  check_int "no residue" 0 (N.Frame.residue d)

let test_frame_split_across_chunks () =
  let d = N.Frame.decoder () in
  let enc = N.Frame.encode (String.make 300 'q') in
  let half = String.length enc / 2 in
  check_int "first half: nothing" 0
    (List.length (feed_ok d (String.sub enc 0 half)));
  check_bool "second half completes" true
    (feed_ok d (String.sub enc half (String.length enc - half))
     = [ String.make 300 'q' ])

let test_frame_oversize_poisons () =
  let d = N.Frame.decoder ~cap:64 () in
  (* declared length 65: rejected from the header alone *)
  let header = Bytes.create 4 in
  Bytes.set_int32_le header 0 65l;
  (match N.Frame.feed d (Bytes.to_string header) with
   | Error (N.Frame.Oversize { declared = 65; cap = 64 }) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (N.Frame.error_to_string e)
   | Ok _ -> Alcotest.fail "oversize accepted");
  (* poisoned: even a valid frame now errors *)
  (match N.Frame.feed d (N.Frame.encode "ok") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "poisoned decoder accepted input");
  (* encode refuses to build an oversize frame: caller bug *)
  match N.Frame.encode ~cap:8 (String.make 9 'z') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode built an oversize frame"

(* ------------------------------------------------------------- *)
(* Codec.                                                          *)

let codec_roundtrip msg =
  match N.Codec.decode (N.Codec.encode msg) with
  | Ok m -> check_bool "roundtrip" true (m = msg)
  | Error e -> Alcotest.failf "decode: %s" (N.Codec.error_to_string e)

let test_codec_roundtrip () =
  List.iter codec_roundtrip
    [ N.Codec.Hello { device_id = "dev-42" };
      N.Codec.Ready;
      N.Codec.Request { challenge = String.make 32 'c'; args = [ 0; 7; 0xFFFF ] };
      N.Codec.Report (String.make 500 'r');
      N.Codec.Verdict
        { accepted = false;
          findings = [ ("bad-token", "token mismatch"); ("k", "") ] };
      N.Codec.Busy "rate limited";
      N.Codec.Bye;
      (* windowed-session messages *)
      N.Codec.Hello_ex { device_id = "dev-43"; window = 1; firmware = "" };
      N.Codec.Hello_ex { device_id = "d"; window = N.Codec.max_window; firmware = "" };
      N.Codec.Welcome { window = 17 };
      N.Codec.Request_seq
        { seq = 0; challenge = String.make 32 'c'; args = [ 1; 2 ] };
      N.Codec.Request_seq
        { seq = 0xFFFF_FFFF; challenge = "x"; args = [] };
      N.Codec.Report_seq { seq = 12345; wire = String.make 700 'w' };
      N.Codec.Report_seq { seq = 0; wire = "" };
      N.Codec.Verdict_seq
        { seq = 7; accepted = true; findings = [] };
      N.Codec.Verdict_seq
        { seq = 9; accepted = false;
          findings = [ ("bad-seq", "unknown sequence") ] } ]

(* Golden frames: both dialects' bytes, written out by hand from the
   layout (a tag byte, then little-endian u16 lengths and counts and u32
   sequence numbers), so a change to the encoding of either dialect
   fails here instead of at a deployed peer. *)
let golden_frames =
  [ (* the legacy set *)
    (N.Codec.Hello { device_id = "dev" }, "010300646576");
    (N.Codec.Ready, "02");
    (N.Codec.Request { challenge = "ch"; args = [ 1; 0xFFFF ] },
     "030200636802000100ffff");
    (N.Codec.Report "wire", "0477697265");
    (N.Codec.Verdict { accepted = false; findings = [ ("bad-token", "x") ] },
     "0500010009006261642d746f6b656e010078");
    (N.Codec.Verdict { accepted = true; findings = [] }, "05010000");
    (N.Codec.Busy "full", "06040066756c6c");
    (N.Codec.Bye, "07");
    (* the pipelined set; a Hello_ex without a firmware claim is the
       pre-lifecycle encoding, the claim is appended *)
    (N.Codec.Hello_ex { device_id = "dev"; window = 8; firmware = "" },
     "0803006465760800");
    (N.Codec.Hello_ex { device_id = "dev"; window = 8; firmware = "v2" },
     "080300646576080002007632");
    (N.Codec.Welcome { window = 258 }, "090201");
    (N.Codec.Request_seq { seq = 0x01020304; challenge = "ch"; args = [ 7 ] },
     "0a040302010200636801000700");
    (N.Codec.Report_seq { seq = 1; wire = "w" }, "0b0100000077");
    (N.Codec.Verdict_seq { seq = 2; accepted = true; findings = [] },
     "0c02000000010000");
    (N.Codec.Verdict_seq
       { seq = 3; accepted = false; findings = [ ("k", "d") ] },
     "0c0300000000010001006b010064");
    (* lifecycle denials *)
    (N.Codec.Denied { cause = N.Codec.Revoked; detail = "key" },
     "0d0103006b6579");
    (N.Codec.Denied { cause = N.Codec.Unknown_device; detail = "" },
     "0d040000") ]

let to_hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_codec_golden_frames () =
  List.iter
    (fun (msg, hex) ->
       let name = Format.asprintf "%a" N.Codec.pp_msg msg in
       Alcotest.(check string) ("encode " ^ name) hex
         (to_hex (N.Codec.encode msg));
       match N.Codec.decode (of_hex hex) with
       | Ok m -> check_bool ("decode " ^ name) true (m = msg)
       | Error e ->
         Alcotest.failf "decode %s: %s" name (N.Codec.error_to_string e))
    golden_frames

let test_codec_window_bounds () =
  (* a zero window would deadlock a session; the codec rejects it on
     both ends *)
  (match N.Codec.encode (N.Codec.Hello_ex { device_id = "d"; window = 0; firmware = "" }) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "encoded a zero window");
  (match N.Codec.encode
           (N.Codec.Welcome { window = N.Codec.max_window + 1 })
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "encoded an oversize window");
  (* a forged zero-window frame decodes to a typed error *)
  let welcome = Bytes.of_string (N.Codec.encode (N.Codec.Welcome { window = 1 })) in
  Bytes.set welcome 1 '\x00';
  (match N.Codec.decode (Bytes.to_string welcome) with
   | Error (N.Codec.Bad_value { value = 0; _ }) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (N.Codec.error_to_string e)
   | Ok _ -> Alcotest.fail "zero window decoded");
  (* sequence numbers are u32 *)
  match
    N.Codec.encode
      (N.Codec.Report_seq { seq = 0x1_0000_0000; wire = "r" })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoded a 33-bit sequence number"

let test_codec_masks_args () =
  (* args land in 16-bit registers; encoding masks them *)
  match N.Codec.decode
          (N.Codec.encode
             (N.Codec.Request { challenge = "c"; args = [ 0x1FFFF; -1 ] }))
  with
  | Ok (N.Codec.Request { args; _ }) ->
    check_bool "masked to u16" true (args = [ 0xFFFF; 0xFFFF ])
  | _ -> Alcotest.fail "request did not decode"

let test_codec_errors () =
  let expect what pred data =
    match N.Codec.decode data with
    | Error e when pred e -> ()
    | Error e ->
      Alcotest.failf "%s: wrong cause %s" what (N.Codec.error_to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  expect "empty" (function N.Codec.Empty -> true | _ -> false) "";
  expect "bad tag" (function N.Codec.Bad_tag 99 -> true | _ -> false)
    (String.make 1 (Char.chr 99));
  let hello = N.Codec.encode (N.Codec.Hello { device_id = "abcdef" }) in
  expect "truncated" (function N.Codec.Truncated _ -> true | _ -> false)
    (String.sub hello 0 (String.length hello - 2));
  expect "trailing"
    (function N.Codec.Trailing { extra = 2 } -> true | _ -> false)
    (hello ^ "xx");
  (* every strict prefix of every message kind decodes to an error *)
  List.iter
    (fun msg ->
       let enc = N.Codec.encode msg in
       for cut = 0 to String.length enc - 1 do
         match N.Codec.decode (String.sub enc 0 cut) with
         | Error _ -> ()
         | Ok _ ->
           Alcotest.failf "prefix %d of %s accepted" cut
             (Format.asprintf "%a" N.Codec.pp_msg msg)
       done)
    [ N.Codec.Hello { device_id = "d" };
      N.Codec.Request { challenge = "cc"; args = [ 1; 2 ] };
      N.Codec.Verdict { accepted = true; findings = [ ("a", "b") ] };
      N.Codec.Busy "x" ]

(* ------------------------------------------------------------- *)
(* Rate limiting (injected clock, fully deterministic).            *)

let test_ratelimit () =
  let rl = N.Ratelimit.create ~now:0.0 ~rate:2.0 ~burst:3.0 () in
  let take now = N.Ratelimit.try_take ~now rl in
  check_bool "burst of 3" true (take 0.0 && take 0.0 && take 0.0);
  check_bool "bucket empty" false (take 0.0);
  (* 2/s * 0.5s = 1 token back *)
  check_bool "one refilled" true (take 0.5);
  check_bool "only one" false (take 0.5);
  (* a clock that jumps backwards must not mint tokens *)
  check_bool "no backwards refill" false (take 0.4);
  check_bool "cap at burst" true
    (take 100.0 && take 100.0 && take 100.0 && not (take 100.0))

(* ------------------------------------------------------------- *)
(* Transports.                                                     *)

(* a transport read, retried for up to ~2 s while it would block *)
let poll_recv conn buf pos len =
  let rec go tries =
    match N.Transport.try_recv conn buf pos len with
    | `Again when tries > 0 -> Thread.delay 0.001; go (tries - 1)
    | r -> r
  in
  go 2000

let recv_all conn n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Bytes.to_string buf
    else
      match poll_recv conn buf off (n - off) with
      | `Data k -> go (off + k)
      | `Eof -> Alcotest.fail "unexpected EOF"
      | `Again -> Alcotest.fail "no data"
  in
  go 0

let exercise_conn_pair (a, b) =
  Peer.write a "ping-from-a";
  check_bool "a->b" true (recv_all b 11 = "ping-from-a");
  Peer.write b "pong";
  check_bool "b->a" true (recv_all a 4 = "pong");
  N.Transport.close a;
  (* peer sees EOF *)
  let buf = Bytes.create 8 in
  check_bool "eof after close" true (poll_recv b buf 0 8 = `Eof);
  N.Transport.close b

let test_loopback_roundtrip () = exercise_conn_pair (N.Transport.loopback ())
let test_socketpair_roundtrip () =
  exercise_conn_pair (N.Transport.socketpair ())

(* The two listeners the gateway's event loop serves: the in-memory
   loopback, whose readiness is a hook the writer runs, and TCP, whose
   readiness comes from epoll/poll on the socket. Only the second sees
   partial writes, resets and kernel buffering, so every gateway case
   below runs over both. *)
type transport = Loopback | Tcp

let transports = [ ("loopback", Loopback); ("tcp", Tcp) ]

(* one case per variant, tagged with the variant's name *)
let over variants cases =
  List.concat_map
    (fun (tag, v) ->
       List.map
         (fun (name, f) ->
            Alcotest.test_case (name ^ " [" ^ tag ^ "]") `Quick (fun () -> f v))
         cases)
    variants

let over_transports cases = over transports cases

let listen = function
  | Loopback -> N.Transport.loopback_listener ()
  | Tcp ->
    let listener, port = N.Transport.tcp_listener ~port:0 () in
    (listener, fun () -> N.Transport.tcp_connect ~host:"127.0.0.1" ~port ())

(* a dial has completed into the listener's backlog (the kernel's, for
   TCP, which may lag the connect by a moment); collect it *)
let accept_within listener =
  let rec go n =
    match N.Transport.try_accept listener with
    | Some server -> server
    | None when n > 0 -> Thread.delay 0.01; go (n - 1)
    | None -> Alcotest.fail "accept did not complete"
  in
  go 500

let test_tcp_roundtrip () =
  let listener, dial = listen Tcp in
  let client = dial () in
  exercise_conn_pair (client, accept_within listener);
  N.Transport.shutdown listener

let test_try_accept transport =
  (* accepting never blocks: [try_accept] answers at once when nothing
     is pending, hands over each dial exactly once, and fails typed
     once the listener is shut *)
  let listener, dial = listen transport in
  check_bool "nothing pending" true (N.Transport.try_accept listener = None);
  let client = dial () in
  let server = accept_within listener in
  check_bool "backlog drained" true (N.Transport.try_accept listener = None);
  Peer.write client "x";
  check_bool "accepted the dialed peer" true (recv_all server 1 = "x");
  N.Transport.close client;
  N.Transport.close server;
  N.Transport.shutdown listener;
  (match N.Transport.try_accept listener with
   | exception N.Transport.Closed -> ()
   | _ -> Alcotest.fail "accepted after shutdown");
  match dial () with
  | conn ->
    N.Transport.close conn;
    Alcotest.fail "dialed a shut listener"
  | exception (N.Transport.Closed | Unix.Unix_error _) -> ()

(* ------------------------------------------------------------- *)
(* Evconn: the framed pump every reader goes through.              *)

let pairs =
  [ ("loopback", N.Transport.loopback); ("socketpair", N.Transport.socketpair) ]

let frames msgs =
  String.concat "" (List.map (fun m -> N.Frame.encode (N.Codec.encode m)) msgs)

(* a few of these fill a socketpair's kernel buffer, so later sends stay
   in the write queue until the peer reads *)
let big c = N.Codec.Report (String.make 60_000 c)

(* a pump whose handlers close on EOF and on error, as every caller's do *)
let attach_closing ?wq_max ?(on_error = ignore) ~loop ~on_msg conn =
  N.Evconn.attach ~loop ?wq_max ~on_msg ~on_eof:N.Evconn.close
    ~on_error:(fun ev e -> on_error e; N.Evconn.close ev) conn

let test_evconn_roundtrip pair =
  let a, b = pair () in
  let pa = Peer.create a and pb = Peer.create b in
  Peer.send pa (N.Codec.Hello { device_id = "d" });
  Peer.send pa N.Codec.Bye;
  (match Peer.msg pb with
   | N.Codec.Hello { device_id } -> check_bool "hello" true (device_id = "d")
   | m -> Alcotest.failf "expected Hello, got %a" N.Codec.pp_msg m);
  (match Peer.msg pb with
   | N.Codec.Bye -> ()
   | m -> Alcotest.failf "expected Bye, got %a" N.Codec.pp_msg m);
  Peer.close pa;
  check_bool "clean EOF" true (Peer.recv pb = `Eof);
  Peer.close pb

let test_evconn_eof_mid_frame pair =
  let a, b = pair () in
  let frame = frames [ N.Codec.Hello { device_id = "half" } ] in
  Peer.write a (String.sub frame 0 (String.length frame / 2));
  N.Transport.close a;
  let pb = Peer.create b in
  check_bool "eof mid-frame" true (Peer.recv pb = `Error `Eof_mid_frame);
  Peer.close pb

let test_evconn_oversize_header pair =
  let a, b = pair () in
  let header = Bytes.create 4 in
  Bytes.set_int32_le header 0 0x7FFF_FFFFl;
  Peer.write a (Bytes.to_string header ^ frames [ N.Codec.Ready ]);
  let pb = Peer.create b in
  (match Peer.recv pb with
   | `Error (`Frame (N.Frame.Oversize _)) -> ()
   | _ -> Alcotest.fail "expected an oversize Frame error");
  (* the one error closed the connection: the valid frame behind the
     header never surfaces, and nothing else fires *)
  check_bool "nothing after the error" true (Peer.recv pb = `Eof);
  Peer.close pb;
  N.Transport.close a

let test_evconn_close_after_flush pair =
  let a, b = pair () in
  let loop = N.Evloop.create () in
  let ev = attach_closing ~loop ~on_msg:(fun _ _ -> ()) a in
  let tags = List.init 8 (fun i -> Char.chr (Char.code 'a' + i)) in
  List.iter (fun c -> N.Evconn.send ev (big c)) tags;
  N.Evconn.close_after_flush ev;
  let flusher =
    Thread.create
      (fun () -> N.Evloop.run loop ~stop:(fun () -> N.Evconn.is_closed ev))
      ()
  in
  let pb = Peer.create b in
  List.iter
    (fun c ->
       match Peer.msg pb with
       | N.Codec.Report r -> check_bool "queued frame, in order" true (r.[0] = c)
       | m -> Alcotest.failf "expected Report, got %a" N.Codec.pp_msg m)
    tags;
  check_bool "EOF once the queue drained" true (Peer.recv pb = `Eof);
  Thread.join flusher;
  N.Evloop.close loop;
  Peer.close pb

let test_evconn_wqueue_overflow () =
  let a, b = N.Transport.socketpair () in
  let loop = N.Evloop.create () in
  let errors = ref [] in
  let ev =
    attach_closing ~wq_max:65536 ~on_error:(fun e -> errors := e :: !errors)
      ~loop ~on_msg:(fun _ _ -> ()) a
  in
  (* the peer never reads *)
  for _ = 1 to 16 do N.Evconn.send ev (big 'w') done;
  check_bool "one overflow" true (!errors = [ `Wqueue_overflow ]);
  check_bool "closed by its handler" true (N.Evconn.is_closed ev);
  N.Evloop.close loop;
  N.Transport.close b

(* A handler that condemns its connection with [close_after_flush]
   while replies are still queued hears nothing more, even from the
   read that carried the condemning frame. *)
let test_evconn_draining_stops_surfacing () =
  let a, b = N.Transport.socketpair () in
  Peer.write b (frames N.Codec.[ Bye; Ready; Ready ]);
  let loop = N.Evloop.create () in
  let surfaced = ref 0 in
  let on_msg ev _ =
    incr surfaced;
    if !surfaced = 1 then begin
      for _ = 1 to 40 do N.Evconn.send ev (big 'v') done;
      N.Evconn.close_after_flush ev
    end
  in
  let ev = attach_closing ~wq_max:(4 lsl 20) ~loop ~on_msg a in
  N.Evloop.run loop ~stop:(fun () -> !surfaced > 0);
  check_int "only the condemning frame surfaced" 1 !surfaced;
  N.Evconn.close ev;
  N.Evloop.close loop;
  N.Transport.close b

(* ------------------------------------------------------------- *)
(* End-to-end gateway rounds.                                      *)

let fire_sensor = List.find (fun a -> a.Apps.name = "fire-sensor") Apps.all

let build_app () =
  let compiled =
    Dialed_minic.Minic.compile ~entry:fire_sensor.Apps.entry
      fire_sensor.Apps.source
  in
  C.Pipeline.build ~variant:C.Pipeline.Full ~data:compiled.Dialed_minic.Minic.data
    ~op:compiled.Dialed_minic.Minic.op ~or_min:fire_sensor.Apps.or_min ()

let gateway_config =
  { N.Server.default_config with
    N.Server.domains = 1; window = 4; read_deadline = Some 2.0;
    args = fire_sensor.Apps.benign_args }

let with_gateway ?(config = gateway_config) ~transport f =
  let built = build_app () in
  let plan = F.Plan.of_built built in
  let listener, dial = listen transport in
  let server = N.Server.create ~config ~plan listener in
  N.Server.start server;
  let device () =
    let d = C.Pipeline.device built in
    fire_sensor.Apps.setup d;
    d
  in
  Fun.protect
    ~finally:(fun () -> ignore (N.Server.stop server))
    (fun () -> f ~server ~dial ~device)

let client_config =
  { N.Client.default_config with
    N.Client.read_deadline = Some 2.0; backoff_base = 0.01;
    backoff_cap = 0.05 }

let test_e2e_rounds transport =
  with_gateway ~transport (fun ~server ~dial ~device ->
      let conn = dial () in
      let rounds =
        N.Client.attest_rounds ~config:client_config ~device
          ~device_id:"dev-1" ~rounds:3 conn
      in
      N.Transport.close conn;
      check_int "three rounds" 3 (Array.length rounds.N.Client.results);
      check_int "first attempts" 0 rounds.N.Client.busy_bounces;
      Array.iter
        (fun (r : N.Client.pipelined_round) ->
           check_bool "accepted" true r.N.Client.p_accepted;
           check_bool "ran" true (Float.is_finite r.N.Client.p_latency))
        rounds.N.Client.results;
      let stats = N.Server.stop server in
      check_int "verdicts accepted" 3 stats.N.Server.verdicts_accepted;
      check_int "requests issued" 3 stats.N.Server.requests_issued;
      check_int "no sessions left" 0 stats.N.Server.sessions_active;
      check_int "no conns left" 0 stats.N.Server.connections_active;
      check_int "fleet agrees" 3 stats.N.Server.verify.F.Metrics.accepted)

let test_e2e_two_provers transport =
  with_gateway ~transport (fun ~server:_ ~dial ~device ->
      let run id () =
        let conn = dial () in
        let rounds =
          N.Client.attest_rounds ~config:client_config ~device
            ~device_id:id ~rounds:2 conn
        in
        N.Transport.close conn;
        Array.for_all
          (fun (r : N.Client.pipelined_round) -> r.N.Client.p_accepted)
          rounds.N.Client.results
      in
      let ok_a = ref false and ok_b = ref false in
      let ta = Thread.create (fun () -> ok_a := run "dev-a" ()) () in
      let tb = Thread.create (fun () -> ok_b := run "dev-b" ()) () in
      Thread.join ta;
      Thread.join tb;
      check_bool "prover a all accepted" true !ok_a;
      check_bool "prover b all accepted" true !ok_b)

let test_e2e_tampered_report_rejected transport =
  with_gateway ~transport (fun ~server ~dial ~device ->
      let mangle (r : A.Pox.report) =
        let b = Bytes.of_string r.A.Pox.or_data in
        let j = Bytes.length b / 2 in
        Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 0x01));
        { r with A.Pox.or_data = Bytes.to_string b }
      in
      let config = { client_config with N.Client.mangle = Some mangle } in
      let conn = dial () in
      let rounds =
        N.Client.attest_rounds ~config ~device ~device_id:"dev-evil"
          ~rounds:1 conn
      in
      N.Transport.close conn;
      (match rounds.N.Client.results with
       | [| r |] ->
         check_bool "rejected" true (not r.N.Client.p_accepted);
         check_bool "bad-token finding" true
           (List.exists (fun (k, _) -> k = "bad-token") r.N.Client.p_findings)
       | _ -> Alcotest.fail "expected one round");
      let stats = N.Server.stop server in
      check_int "rejected counted" 1 stats.N.Server.verdicts_rejected)

let test_e2e_wire_replay_rejected transport =
  (* a prover that answers the second challenge with the first round's
     report: freshness gate rejects it without any replay work *)
  with_gateway ~transport (fun ~server ~dial ~device ->
      let p = Peer.create (dial ()) in
      Peer.send p (N.Codec.Hello { device_id = "dev-replay" });
      Peer.send p N.Codec.Ready;
      let report1 =
        match Peer.msg p with
        | N.Codec.Request { challenge; args } ->
          let req = { C.Protocol.challenge; args } in
          let report, _ = C.Protocol.prover_execute (device ()) req in
          A.Wire.encode report
        | m -> Alcotest.failf "expected Request, got %a" N.Codec.pp_msg m
      in
      Peer.send p (N.Codec.Report report1);
      (match Peer.msg p with
       | N.Codec.Verdict { accepted; _ } ->
         check_bool "honest round accepted" true accepted
       | m -> Alcotest.failf "expected Verdict, got %a" N.Codec.pp_msg m);
      (* second round: replay the recorded report *)
      Peer.send p N.Codec.Ready;
      (match Peer.msg p with
       | N.Codec.Request _ -> ()
       | m -> Alcotest.failf "expected Request, got %a" N.Codec.pp_msg m);
      Peer.send p (N.Codec.Report report1);
      (match Peer.msg p with
       | N.Codec.Verdict { accepted; findings } ->
         check_bool "replay rejected" true (not accepted);
         check_bool "freshness finding" true
           (List.exists (fun (k, _) -> k = "bad-token") findings)
       | m -> Alcotest.failf "expected Verdict, got %a" N.Codec.pp_msg m);
      Peer.send p N.Codec.Bye;
      Peer.close p;
      let stats = N.Server.stop server in
      check_int "one accept one reject" 1 stats.N.Server.verdicts_rejected;
      (* the replay was stopped at the gate: only one report reached
         the fleet verifier *)
      check_int "only honest report replayed" 1
        stats.N.Server.verify.F.Metrics.batch_size)

let test_e2e_rate_limited_busy transport =
  let config =
    { gateway_config with N.Server.rate = Some 0.000001; burst = 1.0 }
  in
  with_gateway ~config ~transport (fun ~server ~dial ~device:_ ->
      let p = Peer.create (dial ()) in
      Peer.send p (N.Codec.Hello { device_id = "dev-greedy" });
      Peer.send p N.Codec.Ready;
      (match Peer.recv p with
       | `Msg (N.Codec.Request _) -> ()
       | _ -> Alcotest.fail "first Ready should get the burst token");
      Peer.send p N.Codec.Ready;
      (match Peer.recv p with
       | `Msg (N.Codec.Busy _) -> ()
       | _ -> Alcotest.fail "second Ready should be rate limited");
      Peer.close p;
      let stats = N.Server.stop server in
      check_int "rate limited counted" 1 stats.N.Server.rate_limited)

let test_e2e_max_conns_busy transport =
  let config = { gateway_config with N.Server.max_conns = 1 } in
  with_gateway ~config ~transport (fun ~server:_ ~dial ~device ->
      (* occupy the only slot with a live session *)
      let first = Peer.create (dial ()) in
      Peer.send first (N.Codec.Hello { device_id = "dev-slot" });
      Peer.send first N.Codec.Ready;
      (match Peer.recv first with
       | `Msg (N.Codec.Request _) -> ()
       | _ -> Alcotest.fail "first connection should be served");
      (* the second connection is turned away with Busy *)
      let second = Peer.create (dial ()) in
      (match Peer.recv second with
       | `Msg (N.Codec.Busy _) -> ()
       | _ -> Alcotest.fail "second connection should get Busy");
      Peer.close second;
      (* freeing the slot lets a new prover in *)
      Peer.close first;
      let rec retry n =
        let conn = dial () in
        (* until the handler notices the hangup we may still be turned
           away (Busy + close -> Transport.Closed on our next send) *)
        match
          Fun.protect ~finally:(fun () -> N.Transport.close conn)
            (fun () ->
               N.Client.attest_rounds ~config:client_config ~device
                 ~device_id:"dev-next" ~rounds:1 conn)
        with
        | { N.Client.results = [| r |]; _ } when r.N.Client.p_accepted -> ()
        | _ when n > 0 -> Thread.delay 0.02; retry (n - 1)
        | _ -> Alcotest.fail "freed slot never became usable"
        | exception N.Transport.Closed when n > 0 ->
          Thread.delay 0.02; retry (n - 1)
      in
      retry 50)

(* ------------------------------------------------------------- *)
(* Pipelined sessions.                                             *)

let test_e2e_pipelined transport =
  with_gateway ~transport (fun ~server ~dial ~device ->
      let conn = dial () in
      let session =
        N.Client.attest_pipelined ~config:client_config ~window:4 ~device
          ~device_id:"dev-pipe" ~rounds:8 conn
      in
      N.Transport.close conn;
      check_int "granted the requested window" 4 session.N.Client.granted;
      check_int "eight rounds" 8 (Array.length session.N.Client.results);
      Array.iter
        (fun (r : N.Client.pipelined_round) ->
           check_bool "accepted" true r.N.Client.p_accepted;
           check_bool "latency measured" true
             (Float.is_finite r.N.Client.p_latency
              && r.N.Client.p_latency >= 0.0))
        session.N.Client.results;
      check_int "no busy bounces" 0 session.N.Client.busy_bounces;
      let stats = N.Server.stop server in
      check_int "verdicts accepted" 8 stats.N.Server.verdicts_accepted;
      check_int "requests issued" 8 stats.N.Server.requests_issued;
      check_int "no window overflow" 0 stats.N.Server.window_overflow;
      check_int "no bad seq" 0 stats.N.Server.bad_seq;
      check_int "no sessions left" 0 stats.N.Server.sessions_active)

let test_stats_fresh_after_session transport =
  (* the counters are read on the loop that writes them, so the verdicts
     a prover already holds are in the very next snapshot: no settle
     loop *)
  with_gateway ~transport (fun ~server ~dial ~device ->
      let conn = dial () in
      let session =
        N.Client.attest_pipelined ~config:client_config ~window:4 ~device
          ~device_id:"dev-fresh" ~rounds:4 conn
      in
      let stats = N.Server.stats server in
      N.Transport.close conn;
      check_bool "all rounds accepted" true
        (Array.for_all
           (fun (r : N.Client.pipelined_round) -> r.N.Client.p_accepted)
           session.N.Client.results);
      check_int "requests issued" 4 stats.N.Server.requests_issued;
      check_int "reports received" 4 stats.N.Server.reports_received;
      check_int "verdicts accepted" 4 stats.N.Server.verdicts_accepted)

let test_e2e_pipelined_window_clamped transport =
  let config = { gateway_config with N.Server.max_window = 2 } in
  with_gateway ~config ~transport (fun ~server:_ ~dial ~device ->
      let conn = dial () in
      let session =
        N.Client.attest_pipelined ~config:client_config ~window:16 ~device
          ~device_id:"dev-greedy" ~rounds:4 conn
      in
      N.Transport.close conn;
      check_int "server clamped the window" 2 session.N.Client.granted;
      check_bool "all rounds still complete" true
        (Array.for_all
           (fun (r : N.Client.pipelined_round) -> r.N.Client.p_accepted)
           session.N.Client.results))

let test_e2e_pipelined_tamper_per_round transport =
  (* tamper exactly rounds 1 and 3 of 5: the verdict array must show
     rejections at those indexes and acceptances elsewhere — windowed
     dispatch must not mix rounds up *)
  with_gateway ~transport (fun ~server ~dial ~device ->
      let tampered = [ 1; 3 ] in
      let respond ~seq req =
        let report, _ = C.Protocol.prover_execute (device ()) req in
        if List.mem seq tampered then
          { report with A.Pox.or_data = String.map (fun _ -> '\xAA') report.A.Pox.or_data }
        else report
      in
      let conn = dial () in
      let session =
        N.Client.attest_pipelined ~config:client_config ~window:5 ~respond
          ~device ~device_id:"dev-mixed" ~rounds:5 conn
      in
      N.Transport.close conn;
      Array.iteri
        (fun i (r : N.Client.pipelined_round) ->
           check_bool
             (Printf.sprintf "round %d verdict" i)
             (not (List.mem i tampered))
             r.N.Client.p_accepted)
        session.N.Client.results;
      let stats = N.Server.stop server in
      check_int "three accepted" 3 stats.N.Server.verdicts_accepted;
      check_int "two rejected" 2 stats.N.Server.verdicts_rejected)

(* ------------------------------------------------------------- *)
(* Hostile pipelining: bad sequence numbers, window floods, Bye
   with rounds in flight — typed rejections, and the gateway keeps
   serving honest provers.                                         *)

let pipelined_handshake p ~device_id ~window =
  Peer.send p (N.Codec.Hello_ex { device_id; window; firmware = "" });
  match Peer.recv p with
  | `Msg (N.Codec.Welcome { window = w }) -> w
  | _ -> Alcotest.fail "no Welcome"

(* the gateway drops the connection without another frame *)
let expect_drop p =
  match Peer.recv p with
  | `Eof | `Error _ -> ()
  | `Msg m -> Alcotest.failf "expected drop, got %a" N.Codec.pp_msg m
  | `Timeout -> Alcotest.fail "connection not dropped"

let test_hostile_bad_seq_reports transport =
  with_gateway ~transport (fun ~server ~dial ~device ->
      let p = Peer.create (dial ()) in
      let _ = pipelined_handshake p ~device_id:"dev-seq" ~window:4 in
      (* a report for a sequence number that was never issued *)
      Peer.send p (N.Codec.Report_seq { seq = 7; wire = "junk" });
      (match Peer.msg p with
       | N.Codec.Verdict_seq { seq = 7; accepted = false; findings } ->
         check_bool "typed bad-seq finding" true
           (List.exists (fun (k, _) -> k = "bad-seq") findings)
       | m -> Alcotest.failf "expected Verdict#7, got %a" N.Codec.pp_msg m);
      (* run one honest round, then answer the same sequence again *)
      Peer.send p N.Codec.Ready;
      let seq0, wire0 =
        match Peer.msg p with
        | N.Codec.Request_seq { seq; challenge; args } ->
          let req = { C.Protocol.challenge; args } in
          let report, _ = C.Protocol.prover_execute (device ()) req in
          (seq, A.Wire.encode report)
        | m -> Alcotest.failf "expected Request, got %a" N.Codec.pp_msg m
      in
      Peer.send p (N.Codec.Report_seq { seq = seq0; wire = wire0 });
      (match Peer.msg p with
       | N.Codec.Verdict_seq { seq; accepted = true; _ } when seq = seq0 -> ()
       | m -> Alcotest.failf "expected Verdict#0+, got %a" N.Codec.pp_msg m);
      Peer.send p (N.Codec.Report_seq { seq = seq0; wire = wire0 });
      (match Peer.msg p with
       | N.Codec.Verdict_seq { seq; accepted = false; findings }
         when seq = seq0 ->
         check_bool "already-answered seq gets bad-seq" true
           (List.exists (fun (k, _) -> k = "bad-seq") findings)
       | m -> Alcotest.failf "expected rejection, got %a" N.Codec.pp_msg m);
      Peer.send p N.Codec.Bye;
      Peer.close p;
      let stats = N.Server.stop server in
      check_int "bad_seq counted twice" 2 stats.N.Server.bad_seq;
      check_int "one honest verdict" 1 stats.N.Server.verdicts_accepted;
      (* the bad-seq junk never reached the verify engine *)
      check_int "engine saw one report" 1
        stats.N.Server.verify.F.Metrics.batch_size)

let test_hostile_window_flood_and_bye transport =
  with_gateway ~transport (fun ~server ~dial ~device ->
      let p = Peer.create (dial ()) in
      let granted = pipelined_handshake p ~device_id:"dev-flood" ~window:4 in
      check_int "granted 4" 4 granted;
      (* flood Ready far past the window without ever reporting *)
      for _ = 1 to 10 do
        Peer.send p N.Codec.Ready
      done;
      let requests = ref 0 and busys = ref 0 in
      for _ = 1 to 10 do
        match Peer.recv p with
        | `Msg (N.Codec.Request_seq _) -> incr requests
        | `Msg (N.Codec.Busy _) -> incr busys
        | _ -> Alcotest.fail "gateway hung up mid-flood"
      done;
      check_int "window worth of requests" 4 !requests;
      check_int "flood bounced" 6 !busys;
      (* Bye with four rounds in flight: typed refusal, then drop *)
      Peer.send p N.Codec.Bye;
      (match Peer.msg p with
       | N.Codec.Busy _ -> ()
       | m ->
         Alcotest.failf "expected Busy after hostile Bye, got %a"
           N.Codec.pp_msg m);
      (* the connection is dropped after the refusal *)
      expect_drop p;
      Peer.close p;
      (* honest traffic still flows *)
      let conn = dial () in
      let rounds =
        N.Client.attest_rounds ~config:client_config ~device
          ~device_id:"dev-honest" ~rounds:1 conn
      in
      N.Transport.close conn;
      (match rounds.N.Client.results with
       | [| r |] -> check_bool "honest round accepted" true r.N.Client.p_accepted
       | _ -> Alcotest.fail "expected one round");
      let stats = N.Server.stop server in
      check_int "window overflow counted" 6 stats.N.Server.window_overflow;
      check_bool "hostile Bye counted" true (stats.N.Server.protocol_errors >= 1);
      check_int "no sessions leaked" 0 stats.N.Server.sessions_active)

let test_hostile_seq_frames_on_legacy_session transport =
  with_gateway ~transport (fun ~server ~dial ~device ->
      let p = Peer.create (dial ()) in
      Peer.send p (N.Codec.Hello { device_id = "dev-old" });
      (* numbered frames on a single-shot session: hostile, dropped *)
      Peer.send p (N.Codec.Report_seq { seq = 0; wire = "x" });
      expect_drop p;
      Peer.close p;
      (* and the gateway still serves *)
      let conn = dial () in
      let rounds =
        N.Client.attest_rounds ~config:client_config ~device
          ~device_id:"dev-honest" ~rounds:1 conn
      in
      N.Transport.close conn;
      (match rounds.N.Client.results with
       | [| r |] -> check_bool "honest round accepted" true r.N.Client.p_accepted
       | _ -> Alcotest.fail "expected one round");
      let stats = N.Server.stop server in
      check_bool "violation counted" true (stats.N.Server.protocol_errors >= 1))

let test_hostile_unsequenced_report transport =
  (* rounds 0 and 1 outstanding, round 0's honest report sent without
     its number: the gateway cannot tell which round it answers, so it
     drops the session instead of judging it against either *)
  with_gateway ~transport (fun ~server ~dial ~device ->
      let p = Peer.create (dial ()) in
      let _ = pipelined_handshake p ~device_id:"dev-unseq" ~window:4 in
      Peer.send p N.Codec.Ready;
      Peer.send p N.Codec.Ready;
      let requests =
        List.init 2 (fun _ ->
            match Peer.recv p with
            | `Msg (N.Codec.Request_seq { seq; challenge; args }) ->
              (seq, { C.Protocol.challenge; args })
            | _ -> Alcotest.fail "expected Request#seq")
      in
      let report, _ =
        C.Protocol.prover_execute (device ()) (List.assoc 0 requests)
      in
      Peer.send p (N.Codec.Report (A.Wire.encode report));
      expect_drop p;
      Peer.close p;
      let stats = N.Server.stop server in
      check_bool "violation counted" true (stats.N.Server.protocol_errors >= 1);
      check_int "nothing reached the engine" 0
        stats.N.Server.verify.F.Metrics.batch_size)

let test_rejected_round_challenge_consumed transport =
  (* round 0 is answered with bytes that do not decode, round 1 with an
     honest report for round 0's challenge: the rejected round's
     challenge is spent, so the gateway names the second report a
     replay *)
  with_gateway ~transport (fun ~server ~dial ~device ->
      let p = Peer.create (dial ()) in
      let _ = pipelined_handshake p ~device_id:"dev-retire" ~window:4 in
      Peer.send p N.Codec.Ready;
      Peer.send p N.Codec.Ready;
      let requests =
        List.init 2 (fun _ ->
            match Peer.msg p with
            | N.Codec.Request_seq { seq; challenge; args } ->
              (seq, { C.Protocol.challenge; args })
            | m -> Alcotest.failf "expected Request#seq, got %a"
                     N.Codec.pp_msg m)
      in
      let verdict seq =
        match Peer.msg p with
        | N.Codec.Verdict_seq { seq = s; accepted = false; findings }
          when s = seq -> findings
        | m -> Alcotest.failf "expected rejection #%d, got %a" seq
                 N.Codec.pp_msg m
      in
      Peer.send p (N.Codec.Report_seq { seq = 0; wire = "garbage" });
      check_bool "round 0 is bad-report" true
        (List.exists (fun (k, _) -> k = "bad-report") (verdict 0));
      let report, _ =
        C.Protocol.prover_execute (device ()) (List.assoc 0 requests)
      in
      Peer.send p (N.Codec.Report_seq { seq = 1; wire = A.Wire.encode report });
      Alcotest.(check (list (pair string string)))
        "round 1 answers a spent challenge"
        [ ("bad-token", "challenge already consumed (replay)") ] (verdict 1);
      Peer.send p N.Codec.Bye;
      Peer.close p;
      let stats = N.Server.stop server in
      check_int "nothing reached the engine" 0
        stats.N.Server.verify.F.Metrics.batch_size)

(* The legacy dialect runs the pipelined machine with a window of 1,
   and keeps two quirks of its own. *)

let test_legacy_report_without_round transport =
  (* a report before any Ready: the verdict is unnumbered bad-token,
     not bad-seq, and the session stays open *)
  with_gateway ~transport (fun ~server ~dial ~device ->
      let p = Peer.create (dial ()) in
      Peer.send p (N.Codec.Hello { device_id = "dev-early" });
      Peer.send p (N.Codec.Report "early");
      (match Peer.msg p with
       | N.Codec.Verdict { accepted = false; findings } ->
         check_bool "no outstanding challenge" true
           (findings = [ ("bad-token", "no outstanding challenge") ])
       | m -> Alcotest.failf "expected Verdict, got %a" N.Codec.pp_msg m);
      let stats = N.Server.stats server in
      check_int "rejection counted" 1 stats.N.Server.verdicts_rejected;
      check_int "report counted" 1 stats.N.Server.reports_received;
      check_int "not a bad seq" 0 stats.N.Server.bad_seq;
      check_int "not a protocol error" 0 stats.N.Server.protocol_errors;
      (* still open: an honest round goes through *)
      Peer.send p N.Codec.Ready;
      (match Peer.msg p with
       | N.Codec.Request { challenge; args } ->
         let report, _ =
           C.Protocol.prover_execute (device ()) { C.Protocol.challenge; args }
         in
         Peer.send p (N.Codec.Report (A.Wire.encode report))
       | m -> Alcotest.failf "expected Request, got %a" N.Codec.pp_msg m);
      (match Peer.msg p with
       | N.Codec.Verdict { accepted; _ } ->
         check_bool "honest round accepted" true accepted
       | m -> Alcotest.failf "expected Verdict, got %a" N.Codec.pp_msg m);
      Peer.send p N.Codec.Bye;
      Peer.close p)

let test_legacy_bye_with_round_open transport =
  (* a legacy Bye with its challenge unanswered closes cleanly, where a
     pipelined one is a protocol error *)
  with_gateway ~transport (fun ~server ~dial ~device:_ ->
      let p = Peer.create (dial ()) in
      Peer.send p (N.Codec.Hello { device_id = "dev-bye" });
      Peer.send p N.Codec.Ready;
      (match Peer.msg p with
       | N.Codec.Request _ -> ()
       | m -> Alcotest.failf "expected Request, got %a" N.Codec.pp_msg m);
      Peer.send p N.Codec.Bye;
      expect_drop p;
      Peer.close p;
      let stats = N.Server.stop server in
      check_int "clean close" 0 stats.N.Server.protocol_errors;
      check_int "no sessions left" 0 stats.N.Server.sessions_active)

(* ------------------------------------------------------------- *)
(* Hostile peers: the gateway must shed them and keep serving.     *)

let test_server_survives_malformed_peers transport =
  let config =
    { gateway_config with N.Server.read_deadline = Some 0.15; max_frame = 4096 }
  in
  with_gateway ~config ~transport (fun ~server ~dial ~device ->
      let attack bytes =
        let conn = dial () in
        (try Peer.write conn bytes with N.Transport.Closed -> ());
        (* wait for the server to drop us *)
        let p = Peer.create conn in
        let rec drain () =
          match Peer.recv p with
          | `Msg _ -> drain ()
          | `Eof | `Error _ | `Timeout -> ()
        in
        drain ();
        Peer.close p
      in
      let oversize_header =
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 1_000_000l;
        Bytes.to_string b
      in
      (* each entry is one hostile connection *)
      attack "";                                     (* instant hangup *)
      attack "\x03";                                 (* partial header *)
      attack oversize_header;                        (* huge declared len *)
      attack (N.Frame.encode "");                    (* empty payload *)
      attack (N.Frame.encode "\xFF\xFF\xFF");        (* bad tag *)
      attack (N.Frame.encode (N.Codec.encode N.Codec.Ready));
                                       (* Ready before Hello *)
      attack (N.Frame.encode (N.Codec.encode N.Codec.Bye) ^ "\x01");
                                       (* trailing partial header *)
      attack (String.concat ""
                (List.init 64 (fun i -> N.Frame.encode (String.make i 'j'))));
                                       (* a burst of junk frames *)
      (* after all that, an honest prover still gets served *)
      let conn = dial () in
      let rounds =
        N.Client.attest_rounds ~config:client_config ~device
          ~device_id:"dev-honest" ~rounds:1 conn
      in
      N.Transport.close conn;
      (match rounds.N.Client.results with
       | [| r |] -> check_bool "honest round accepted" true r.N.Client.p_accepted
       | _ -> Alcotest.fail "expected one round");
      let stats = N.Server.stop server in
      check_bool "hostile streams counted" true
        (stats.N.Server.protocol_errors + stats.N.Server.deadline_timeouts
         >= 5);
      check_int "no sessions leaked" 0 stats.N.Server.sessions_active;
      check_int "no conns leaked" 0 stats.N.Server.connections_active)

let test_server_survives_slow_loris transport =
  let config = { gateway_config with N.Server.read_deadline = Some 0.1 } in
  with_gateway ~config ~transport (fun ~server ~dial ~device ->
      let conn = dial () in
      (* a valid Hello, then a frame header that never completes *)
      Peer.write_msg conn (N.Codec.Hello { device_id = "dev-loris" });
      Peer.write conn "\x10\x00";
      (* server must cut us loose at the deadline *)
      let p = Peer.create conn in
      (match Peer.recv p with
       | `Eof -> ()
       | `Timeout -> Alcotest.fail "server never dropped the slow loris"
       | _ -> Alcotest.fail "expected EOF after deadline");
      Peer.close p;
      (* and still serves honest traffic *)
      let conn = dial () in
      let rounds =
        N.Client.attest_rounds ~config:client_config ~device
          ~device_id:"dev-honest" ~rounds:1 conn
      in
      N.Transport.close conn;
      (match rounds.N.Client.results with
       | [| r |] -> check_bool "honest round accepted" true r.N.Client.p_accepted
       | _ -> Alcotest.fail "expected one round");
      let stats = N.Server.stop server in
      check_bool "timeout counted" true (stats.N.Server.deadline_timeouts >= 1);
      check_int "no sessions leaked" 0 stats.N.Server.sessions_active)

(* ------------------------------------------------------------- *)
(* Idle reaping and half-open connections.                         *)

let test_idle_connection_reaped transport =
  (* a peer that opens a session and then falls silent is reaped at
     the read deadline — idle sockets must not accumulate *)
  let config =
    { gateway_config with N.Server.read_deadline = Some 0.1 }
  in
  with_gateway ~config ~transport (fun ~server ~dial ~device:_ ->
      let p = Peer.create (dial ()) in
      Peer.send p (N.Codec.Hello_ex { device_id = "dev-idle"; window = 4; firmware = "" });
      (match Peer.recv p with
       | `Msg (N.Codec.Welcome _) -> ()
       | _ -> Alcotest.fail "no Welcome");
      (* now say nothing; the server must hang up on us *)
      (match Peer.recv p with
       | `Eof -> ()
       | `Timeout -> Alcotest.fail "idle connection never reaped"
       | _ -> Alcotest.fail "expected EOF for the idle session");
      Peer.close p;
      let stats = N.Server.stop server in
      check_bool "timeout counted" true (stats.N.Server.deadline_timeouts >= 1);
      check_int "no sessions leaked" 0 stats.N.Server.sessions_active;
      check_int "no conns leaked" 0 stats.N.Server.connections_active)

let test_chatty_session_outlives_deadline transport =
  (* the read deadline runs from the last frame, not the first: a peer
     that keeps talking is never reaped, however long its session *)
  let deadline = 0.3 in
  let config =
    { gateway_config with N.Server.read_deadline = Some deadline }
  in
  with_gateway ~config ~transport (fun ~server ~dial ~device:_ ->
      let p = Peer.create (dial ()) in
      Peer.send p
        (N.Codec.Hello_ex { device_id = "dev-chatty"; window = 4; firmware = "" });
      (match Peer.recv p with
       | `Msg (N.Codec.Welcome _) -> ()
       | _ -> Alcotest.fail "no Welcome");
      (* unknown sequence numbers: each draws a bad-seq verdict and
         keeps the session open, over ~2 deadlines in all *)
      let t0 = Unix.gettimeofday () in
      let frames = ref 0 in
      while Unix.gettimeofday () -. t0 < 2.0 *. deadline do
        Thread.delay (deadline /. 6.0);
        incr frames;
        Peer.send p (N.Codec.Report_seq { seq = 1000 + !frames; wire = "x" });
        match Peer.recv p with
        | `Msg (N.Codec.Verdict_seq { accepted = false; _ }) -> ()
        | _ -> Alcotest.failf "frame %d: session cut before its deadline" !frames
      done;
      Peer.send p N.Codec.Bye;
      Peer.close p;
      let stats = N.Server.stop server in
      check_int "no timeouts" 0 stats.N.Server.deadline_timeouts)

let test_half_open_fin_no_bye () =
  (* TCP half-close: the peer FINs its write side without sending Bye
     and keeps its read side open. The gateway must treat the EOF as
     the end of the session and release the connection — a half-open
     socket held forever is a slot leak an attacker can farm. *)
  let built = build_app () in
  let plan = F.Plan.of_built built in
  let listener, port = N.Transport.tcp_listener ~port:0 () in
  let server =
    N.Server.create ~config:gateway_config ~plan listener
  in
  N.Server.start server;
  Fun.protect
    ~finally:(fun () -> ignore (N.Server.stop server))
    (fun () ->
       let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Unix.connect sock
         (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       let hello =
         N.Frame.encode
           (N.Codec.encode (N.Codec.Hello { device_id = "dev-fin" }))
       in
       let n = Unix.write_substring sock hello 0 (String.length hello) in
       check_int "hello written" (String.length hello) n;
       (* FIN our write side; our read side stays open *)
       Unix.shutdown sock Unix.SHUTDOWN_SEND;
       (* the gateway closes its end: we observe EOF rather than hang *)
       let buf = Bytes.create 64 in
       let deadline = Unix.gettimeofday () +. 5.0 in
       let rec drain () =
         if Unix.gettimeofday () > deadline then
           Alcotest.fail "gateway never closed the half-open connection"
         else
           match Unix.select [ sock ] [] [] 0.2 with
           | [], _, _ -> drain ()
           | _ ->
             (match Unix.read sock buf 0 64 with
              | 0 -> ()
              | _ -> drain ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())
       in
       drain ();
       Unix.close sock;
       (* the slot is free again *)
       let rec settled n =
         let stats = N.Server.stats server in
         if stats.N.Server.connections_active = 0 then stats
         else if n = 0 then stats
         else (Thread.delay 0.02; settled (n - 1))
       in
       let stats = settled 100 in
       check_int "no sessions leaked" 0 stats.N.Server.sessions_active;
       check_int "no conns leaked" 0 stats.N.Server.connections_active;
       (* a clean FIN is EOF, not a protocol violation *)
       check_int "FIN is not an error" 0 stats.N.Server.protocol_errors)

let test_request_stop_unwinds transport =
  (* request_stop is the signal-handler path: lock-free, it makes
     serve_forever return (the unwinding loop closes the listener) so
     the caller can run the full stop for teardown + stats. A
     regression here shows up as a gateway that ignores Ctrl-C (the
     handler used to call [stop] from the serving thread and
     self-deadlock). *)
  let built = build_app () in
  let plan = F.Plan.of_built built in
  let listener, dial = listen transport in
  let server =
    N.Server.create ~config:gateway_config ~plan listener
  in
  let unwound = Atomic.make false in
  let th =
    Thread.create
      (fun () -> N.Server.serve_forever server; Atomic.set unwound true) ()
  in
  (* prove the engine is actually serving before pulling the plug *)
  let p = Peer.create (dial ()) in
  Peer.send p (N.Codec.Hello_ex { device_id = "dev-sig"; window = 2; firmware = "" });
  (match Peer.recv ~deadline:5.0 p with
   | `Msg (N.Codec.Welcome _) -> ()
   | _ -> Alcotest.fail "no Welcome");
  N.Server.request_stop server;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while not (Atomic.get unwound) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  check_bool "serve_forever returned" true (Atomic.get unwound);
  Thread.join th;
  Peer.close p;
  (* new dials are refused: the listener is gone *)
  (match dial () with
   | conn2 ->
     N.Transport.close conn2;
     Alcotest.fail "listener still accepting after request_stop"
   | exception (N.Transport.Closed | Unix.Unix_error _) -> ());
  let stats = N.Server.stop server in
  check_int "no sessions leaked" 0 stats.N.Server.sessions_active;
  check_int "no conns leaked" 0 stats.N.Server.connections_active

let test_request_stop_before_serve transport =
  (* a signal that lands between create and serve_forever: the loop
     must not start (over TCP it used to register the already-closed
     listener and die in epoll_ctl, leaving [stop] waiting forever), and
     stop must still tear down. Both calls run on a thread with a
     deadline, so a hang fails the case instead of the suite. *)
  let built = build_app () in
  let plan = F.Plan.of_built built in
  let listener, dial = listen transport in
  let server = N.Server.create ~config:gateway_config ~plan listener in
  N.Server.request_stop server;
  let within_5s what f =
    let result = Atomic.make None in
    let th =
      Thread.create
        (fun () ->
           Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
        ()
    in
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get result = None && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    match Atomic.get result with
    | None -> Alcotest.failf "%s did not return within 5 s" what
    | Some (Error e) ->
      Thread.join th;
      Alcotest.failf "%s raised %s" what (Printexc.to_string e)
    | Some (Ok v) -> Thread.join th; v
  in
  within_5s "serve_forever" (fun () -> N.Server.serve_forever server);
  let stats = within_5s "stop" (fun () -> N.Server.stop server) in
  check_int "no sessions leaked" 0 stats.N.Server.sessions_active;
  check_int "no conns leaked" 0 stats.N.Server.connections_active;
  check_int "nothing accepted" 0 stats.N.Server.connections_accepted;
  match dial () with
  | conn ->
    N.Transport.close conn;
    Alcotest.fail "listener still accepting after stop"
  | exception (N.Transport.Closed | Unix.Unix_error _) -> ()

let test_concurrent_stop transport =
  (* [stop] is idempotent across threads too: a caller that finds a stop
     in progress waits for its final stats instead of tearing down a
     second time, which would close the fleet stream twice *)
  with_gateway ~transport (fun ~server ~dial ~device ->
      let conn = dial () in
      ignore
        (N.Client.attest_rounds ~config:client_config ~device
           ~device_id:"dev-stop" ~rounds:1 conn);
      N.Transport.close conn;
      let go = Atomic.make false in
      let stopper () =
        let result = Atomic.make None in
        let (_ : Thread.t) =
          Thread.create
            (fun () ->
               while not (Atomic.get go) do Thread.yield () done;
               Atomic.set result
                 (Some (try Ok (N.Server.stop server) with e -> Error e)))
            ()
        in
        result
      in
      let results = [ stopper (); stopper () ] in
      Atomic.set go true;
      let deadline = Unix.gettimeofday () +. 5.0 in
      let finish result =
        while Atomic.get result = None && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        match Atomic.get result with
        | None -> Alcotest.fail "stop did not return within 5 s"
        | Some (Error e) ->
          Alcotest.failf "stop raised %s" (Printexc.to_string e)
        | Some (Ok stats) -> stats
      in
      match List.map finish results with
      | [ a; b ] ->
        check_bool "one final stats" true (a = b);
        check_int "the round is in it" 1 a.N.Server.verdicts_accepted
      | _ -> assert false)

let test_stats_racing_stop transport =
  (* a stats caller whose loop exits before its posted read runs must
     read the counters itself instead of waiting for a reply that never
     comes *)
  with_gateway ~transport (fun ~server ~dial ~device ->
      let conn = dial () in
      ignore
        (N.Client.attest_rounds ~config:client_config ~device
           ~device_id:"dev-race" ~rounds:2 conn);
      N.Transport.close conn;
      let stopped = Atomic.make false and polls = Atomic.make 0 in
      let finished = Atomic.make false in
      let (_ : Thread.t) =
        Thread.create
          (fun () ->
             while not (Atomic.get stopped) do
               ignore (N.Server.stats server : N.Server.stats);
               Atomic.incr polls
             done;
             Atomic.set finished true)
          ()
      in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get polls < 10 && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      let final = N.Server.stop server in
      Atomic.set stopped true;
      while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check_bool "the poller returned" true (Atomic.get finished);
      check_bool "stats after stop are the final stats" true
        (N.Server.stats server = final);
      check_int "both rounds counted" 2 final.N.Server.verdicts_accepted)

(* ------------------------------------------------------------- *)
(* Client backoff.                                                 *)

let test_backoff_deterministic () =
  let cfg =
    { N.Client.default_config with
      N.Client.backoff_base = 0.05; backoff_cap = 2.0;
      jitter_seed = "pin-me" }
  in
  let seq n = List.init n (fun i -> N.Client.backoff_delay cfg ~attempt:(i + 1)) in
  check_bool "same config, same delays" true (seq 8 = seq 8);
  List.iteri
    (fun i d ->
       let attempt = i + 1 in
       let raw = min 2.0 (0.05 *. (2.0 ** float_of_int (attempt - 1))) in
       check_bool "within jitter envelope" true
         (d >= 0.5 *. raw && d < 1.5 *. raw))
    (seq 8);
  (* different seeds decorrelate retries across a prover fleet *)
  let other = { cfg with N.Client.jitter_seed = "someone-else" } in
  check_bool "different seed, different delays" true
    (N.Client.backoff_delay cfg ~attempt:1
     <> N.Client.backoff_delay other ~attempt:1)

(* A mid-window cut that races the prover's own send: the gateway
   answers rounds 0 and 1 and sends [Denied] before the Report for round
   1 leaves, so that send finds the connection closed. The verdicts
   queued ahead of the denial were delivered and must count. *)
let test_cut_keeps_delivered_verdicts () =
  let device =
    let built = build_app () in
    fun () ->
      let d = C.Pipeline.device built in
      fire_sensor.Apps.setup d;
      d
  in
  let conn, gw = N.Transport.loopback () in
  let request seq =
    N.Codec.Request_seq
      { seq; challenge = Printf.sprintf "cut-%d" seq;
        args = fire_sensor.Apps.benign_args }
  in
  let verdict seq = N.Codec.Verdict_seq { seq; accepted = true; findings = [] } in
  List.iter (Peer.write_msg gw)
    [ N.Codec.Welcome { window = 2 }; request 0; request 1 ];
  let respond ~seq req =
    if seq = 1 then begin
      List.iter (Peer.write_msg gw)
        [ verdict 0; verdict 1;
          N.Codec.Denied { cause = N.Codec.Revoked; detail = "key revoked" } ];
      N.Transport.close gw
    end;
    fst (C.Protocol.prover_execute (device ()) req)
  in
  let session =
    N.Client.attest_pipelined ~config:client_config ~window:2 ~respond ~device
      ~device_id:"dev-cut" ~rounds:4 conn
  in
  N.Transport.close conn;
  check_bool "cut surfaced as a denial" true
    (match session.N.Client.denied with
     | Some (N.Codec.Revoked, _) -> true
     | _ -> false);
  Array.iteri
    (fun i (r : N.Client.pipelined_round) ->
       let delivered = i < 2 in
       check_bool (Printf.sprintf "round %d accepted" i) delivered
         r.N.Client.p_accepted;
       check_bool (Printf.sprintf "round %d latency" i) delivered
         (Float.is_finite r.N.Client.p_latency))
    session.N.Client.results

let suites =
  [ ("net-frame",
     [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
       Alcotest.test_case "split chunks" `Quick test_frame_split_across_chunks;
       Alcotest.test_case "oversize poisons" `Quick test_frame_oversize_poisons ]);
    ("net-codec",
     [ Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
       Alcotest.test_case "args masked" `Quick test_codec_masks_args;
       Alcotest.test_case "typed errors" `Quick test_codec_errors;
       Alcotest.test_case "window bounds" `Quick test_codec_window_bounds;
       Alcotest.test_case "golden frames" `Quick test_codec_golden_frames ]);
    ("net-ratelimit",
     [ Alcotest.test_case "token bucket" `Quick test_ratelimit ]);
    ("net-transport",
     [ Alcotest.test_case "loopback" `Quick test_loopback_roundtrip;
       Alcotest.test_case "socketpair" `Quick test_socketpair_roundtrip;
       Alcotest.test_case "tcp" `Quick test_tcp_roundtrip ]
     @ over_transports [ ("try_accept", test_try_accept) ]);
    ("net-evconn",
     over pairs
       [ ("roundtrip, then clean EOF", test_evconn_roundtrip);
         ("EOF mid-frame", test_evconn_eof_mid_frame);
         ("oversize header: one error", test_evconn_oversize_header);
         ("close_after_flush delivers the queue",
          test_evconn_close_after_flush) ]
     @ [ Alcotest.test_case "write queue overflow [socketpair]" `Quick
           test_evconn_wqueue_overflow;
         Alcotest.test_case "close_after_flush stops surfacing [socketpair]"
           `Quick test_evconn_draining_stops_surfacing ]);
    ("net-gateway",
     (* the full corpus, once per transport *)
     over_transports
       [ ("e2e rounds", test_e2e_rounds);
         ("two provers", test_e2e_two_provers);
         ("tamper rejected", test_e2e_tampered_report_rejected);
         ("wire replay rejected", test_e2e_wire_replay_rejected);
         ("rate limit Busy", test_e2e_rate_limited_busy);
         ("max conns Busy", test_e2e_max_conns_busy);
         ("survives malformed peers", test_server_survives_malformed_peers);
         ("survives slow loris", test_server_survives_slow_loris);
         ("idle connection reaped", test_idle_connection_reaped);
         ("chatty session outlives the deadline",
          test_chatty_session_outlives_deadline);
         ("request_stop unwinds serve_forever", test_request_stop_unwinds);
         ("request_stop before serve_forever",
          test_request_stop_before_serve);
         ("concurrent stop returns one final stats", test_concurrent_stop);
         ("stats racing stop", test_stats_racing_stop);
         ("stats fresh after a session", test_stats_fresh_after_session);
         ("legacy report with no open round",
          test_legacy_report_without_round);
         ("legacy Bye with its round open", test_legacy_bye_with_round_open) ]
     @ [ Alcotest.test_case "half-open FIN without Bye" `Quick
           test_half_open_fin_no_bye ]);
    ("net-pipelined",
     over_transports
       [ ("e2e pipelined", test_e2e_pipelined);
         ("window clamped by server", test_e2e_pipelined_window_clamped);
         ("per-round tamper isolated", test_e2e_pipelined_tamper_per_round);
         ("bad sequence numbers rejected", test_hostile_bad_seq_reports);
         ("window flood and hostile Bye", test_hostile_window_flood_and_bye);
         ("seq frames on legacy session",
          test_hostile_seq_frames_on_legacy_session);
         ("unsequenced report on pipelined session",
          test_hostile_unsequenced_report);
         ("a rejected round's challenge is consumed",
          test_rejected_round_challenge_consumed) ]);
    ("net-client",
     [ Alcotest.test_case "backoff deterministic" `Quick
         test_backoff_deterministic;
       Alcotest.test_case "cut keeps delivered verdicts" `Quick
         test_cut_keeps_delivered_verdicts ]) ]
