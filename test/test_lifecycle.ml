(* The device lifecycle layer: registry state machine, revocation
   sets, staged firmware rollout and the append-only journal — first as
   a unit corpus against the registry alone, then end-to-end through
   the gateway over both transports (a revoked or quarantined device
   must be turned away with a typed cause, including a revocation
   landing mid-pipelined-window). *)

module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module N = Dialed_net
module L = Dialed_lifecycle.Lifecycle
module Apps = Dialed_apps.Apps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let reg lc id key =
  match L.register lc ~id ~key_id:key with
  | Ok () -> ()
  | Error m -> Alcotest.failf "register %s: %s" id m

let state_of lc id =
  match L.find lc id with
  | Some d -> d.L.state
  | None -> Alcotest.failf "device %s not in registry" id

(* ------------------------------------------------------------- *)
(* State machine.                                                  *)

let test_state_machine () =
  let lc = L.create () in
  (match L.register lc ~id:"" ~key_id:"k" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "registered an empty id");
  (match L.register lc ~id:(String.make 129 'x') ~key_id:"k" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "registered a 129-byte id");
  reg lc "d1" "k1";
  check_bool "starts Registered" true (state_of lc "d1" = L.Registered);
  L.note_attested lc "d1";
  check_bool "attests" true (state_of lc "d1" = L.Attested);
  L.note_attested lc "d1";
  (match L.find lc "d1" with
   | Some d -> check_int "rounds accumulate" 2 d.L.rounds
   | None -> Alcotest.fail "d1 vanished");
  check_bool "quarantine moves it" true (L.quarantine lc "d1");
  check_bool "quarantined (admin)" true
    (state_of lc "d1" = L.Quarantined L.Admin);
  (* the one invariant everything else hangs off: nothing but an
     explicit release exits quarantine *)
  L.note_attested lc "d1";
  check_bool "attestation cannot exit quarantine" true
    (state_of lc "d1" = L.Quarantined L.Admin);
  reg lc "d1" "k1-fresh";
  check_bool "re-keying cannot exit quarantine" true
    (state_of lc "d1" = L.Quarantined L.Admin);
  (match L.release lc "d1" with
   | Ok () -> ()
   | Error m -> Alcotest.failf "release: %s" m);
  check_bool "release returns it to Registered" true
    (state_of lc "d1" = L.Registered);
  check_bool "quarantine of unknown id is a no-op" true
    (not (L.quarantine lc "ghost"));
  (match L.release lc "ghost" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "released an unknown device")

let test_revocation () =
  let lc = L.create () in
  reg lc "a" "k-shared";
  reg lc "b" "k-shared";
  reg lc "c" "k-other";
  L.note_attested lc "b";
  check_int "revocation sweeps every holder" 2 (L.revoke_key lc "k-shared");
  check_bool "revoked set remembers" true (L.is_revoked lc "k-shared");
  check_bool "a quarantined" true
    (state_of lc "a" = L.Quarantined L.Key_revoked);
  check_bool "b quarantined even though attested" true
    (state_of lc "b" = L.Quarantined L.Key_revoked);
  check_bool "c untouched" true (state_of lc "c" = L.Registered);
  check_int "second revocation finds nothing new" 0
    (L.revoke_key lc "k-shared");
  (* release refuses while the device still holds the revoked key *)
  (match L.release lc "a" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "released a device on a revoked key");
  (* re-provisioning with a fresh key is necessary but not sufficient:
     quarantine still needs its explicit release *)
  reg lc "a" "k-fresh";
  check_bool "re-keyed but still quarantined" true
    (state_of lc "a" = L.Quarantined L.Key_revoked);
  (match L.release lc "a" with
   | Ok () -> ()
   | Error m -> Alcotest.failf "release after re-key: %s" m);
  check_bool "released" true (state_of lc "a" = L.Registered);
  let s = L.summary lc in
  check_int "summary devices" 3 s.L.devices;
  check_int "summary quarantined" 1 s.L.quarantined;
  check_int "summary revoked keys" 1 s.L.revoked_keys

let test_admit_recheck () =
  (* open policy: unknown peers ride allow_anonymous *)
  let lc = L.create () in
  check_bool "anonymous admitted" true (L.admit lc ~device_id:"" ~firmware:"" = Ok ());
  check_bool "unknown admitted under open policy" true
    (L.admit lc ~device_id:"ghost" ~firmware:"" = Ok ());
  (* closed policy *)
  let lc = L.create ~allow_anonymous:false () in
  check_bool "anonymous refused" true
    (L.admit lc ~device_id:"" ~firmware:"" = Error L.Unknown_device);
  check_bool "unknown refused" true
    (L.admit lc ~device_id:"ghost" ~firmware:"" = Error L.Unknown_device);
  reg lc "dev" "k";
  check_bool "registered admitted" true
    (L.admit lc ~device_id:"dev" ~firmware:"" = Ok ());
  (* admit records the claimed firmware on the device *)
  check_bool "firmware claim admitted" true
    (L.admit lc ~device_id:"dev" ~firmware:"3.1" = Ok ());
  (match L.find lc "dev" with
   | Some d -> check_string "claim recorded" "3.1" d.L.firmware
   | None -> Alcotest.fail "dev vanished");
  (* quarantine closes the door until release *)
  ignore (L.quarantine lc "dev" : bool);
  check_bool "quarantined denied at admit" true
    (L.admit lc ~device_id:"dev" ~firmware:"" = Error L.Quarantined_device);
  check_bool "quarantined denied at recheck" true
    (L.recheck lc "dev" = Error L.Quarantined_device);
  (match L.release lc "dev" with Ok () -> () | Error m -> Alcotest.fail m);
  check_bool "recheck passes after release" true (L.recheck lc "dev" = Ok ());
  (* a revocation that lands between admit and recheck quarantines on
     the recheck itself — that is the mid-window cut *)
  ignore (L.revoke_key lc "k" : int);
  check_bool "recheck catches a fresh revocation" true
    (L.recheck lc "dev" = Error L.Revoked);
  check_bool "and quarantines as a side effect" true
    (state_of lc "dev" = L.Quarantined L.Key_revoked);
  (* a device registered late onto an already-revoked key never gets in *)
  reg lc "latecomer" "k";
  check_bool "revoked key denied at admit" true
    (L.admit lc ~device_id:"latecomer" ~firmware:"" = Error L.Revoked);
  check_bool "latecomer quarantined" true
    (state_of lc "latecomer" = L.Quarantined L.Key_revoked)

(* ------------------------------------------------------------- *)
(* Staged rollout.                                                 *)

let test_rollout () =
  let lc = L.create () in
  check_bool "no policy: everything allowed" true
    (L.firmware_allowed lc "anything" && L.firmware_allowed lc "");
  L.set_stable lc "1.0";
  check_bool "stable allowed" true (L.firmware_allowed lc "1.0");
  check_bool "no claim always allowed" true (L.firmware_allowed lc "");
  check_bool "retired version refused" true (not (L.firmware_allowed lc "0.9"));
  (* begin_canary validates its inputs *)
  (match L.begin_canary lc ~version:"" ~percent:10 with
   | Error _ -> () | Ok () -> Alcotest.fail "empty canary version");
  (match L.begin_canary lc ~version:"1.1" ~percent:101 with
   | Error _ -> () | Ok () -> Alcotest.fail "percent 101");
  (match L.begin_canary lc ~version:"1.1" ~percent:(-1) with
   | Error _ -> () | Ok () -> Alcotest.fail "percent -1");
  (match L.begin_canary lc ~version:"1.0" ~percent:10 with
   | Error _ -> () | Ok () -> Alcotest.fail "canary equals stable");
  (match L.begin_canary lc ~version:"1.1" ~percent:50 with
   | Ok () -> () | Error m -> Alcotest.fail m);
  check_bool "canary allowed during rollout" true (L.firmware_allowed lc "1.1");
  check_bool "stable still allowed" true (L.firmware_allowed lc "1.0");
  (* promote retires the old stable in one step *)
  (match L.promote lc with Ok () -> () | Error m -> Alcotest.fail m);
  check_bool "promoted" true
    (L.rollout lc = { L.stable = "1.1"; canary = None });
  check_bool "old stable now refused" true (not (L.firmware_allowed lc "1.0"));
  (match L.promote lc with
   | Error _ -> () | Ok () -> Alcotest.fail "promoted without a canary");
  (match L.rollback lc with
   | Error _ -> () | Ok () -> Alcotest.fail "rolled back without a canary");
  (* rollback abandons the canary, stable untouched *)
  (match L.begin_canary lc ~version:"2.0" ~percent:10 with
   | Ok () -> () | Error m -> Alcotest.fail m);
  (match L.rollback lc with Ok () -> () | Error m -> Alcotest.fail m);
  check_bool "rolled back" true
    (L.rollout lc = { L.stable = "1.1"; canary = None });
  check_bool "abandoned canary refused" true (not (L.firmware_allowed lc "2.0"))

let test_canary_cohorts () =
  let lc = L.create () in
  L.set_stable lc "1.0";
  (match L.begin_canary lc ~version:"1.1" ~percent:50 with
   | Ok () -> () | Error m -> Alcotest.fail m);
  let ids = List.init 400 (fun i -> Printf.sprintf "dev-%04d" i) in
  let assigned = List.filter (L.assigned_canary lc) ids in
  let n = List.length assigned in
  (* the hash split is deterministic, so this is a fixed number — the
     band only guards against a degenerate assignment function *)
  check_bool "roughly half the fleet" true (n > 120 && n < 280);
  check_bool "assignment is deterministic" true
    (List.for_all (L.assigned_canary lc) assigned);
  (* expected_firmware is the operator's view of the same split *)
  List.iter
    (fun id ->
       check_string "expected follows assignment"
         (if L.assigned_canary lc id then "1.1" else "1.0")
         (L.expected_firmware lc id))
    ids;
  (* a fresh registry with the same policy draws the same cohort *)
  let lc2 = L.create () in
  L.set_stable lc2 "1.0";
  (match L.begin_canary lc2 ~version:"1.1" ~percent:50 with
   | Ok () -> () | Error m -> Alcotest.fail m);
  check_bool "same cohort across restarts" true
    (List.for_all (fun id -> L.assigned_canary lc id = L.assigned_canary lc2 id)
       ids);
  (* the edges behave *)
  (match L.begin_canary lc ~version:"1.2" ~percent:0 with
   | Ok () -> () | Error m -> Alcotest.fail m);
  check_bool "0 percent: nobody" true
    (not (List.exists (L.assigned_canary lc) ids));
  (match L.begin_canary lc ~version:"1.2" ~percent:100 with
   | Ok () -> () | Error m -> Alcotest.fail m);
  check_bool "100 percent: everybody" true
    (List.for_all (L.assigned_canary lc) ids)

(* ------------------------------------------------------------- *)
(* Journal.                                                        *)

let with_temp_journal f =
  let path = Filename.temp_file "dialed-lifecycle" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_journal_replay () =
  with_temp_journal @@ fun path ->
  let t = L.create ~journal:path () in
  reg t "alpha" "k1";
  (* ids with journal metacharacters must round-trip *)
  reg t "tab\tid" "k2";
  reg t "pct%id" "k3";
  L.note_attested t "alpha";
  ignore (L.quarantine t "pct%id" : bool);
  ignore (L.revoke_key t "k2" : int);
  L.set_stable t "1.0";
  (match L.begin_canary t ~version:"1.1" ~percent:25 with
   | Ok () -> () | Error m -> Alcotest.fail m);
  let devices = L.devices t and summary = L.summary t in
  L.close t;
  let t2 = L.create ~journal:path () in
  check_bool "devices replay byte-for-byte" true (L.devices t2 = devices);
  check_bool "summary replays" true (L.summary t2 = summary);
  check_bool "revoked set replays" true (L.is_revoked t2 "k2");
  check_bool "rollout replays" true
    (L.rollout t2 = { L.stable = "1.0"; canary = Some ("1.1", 25) });
  (* the reopened registry keeps journaling where the old one stopped *)
  reg t2 "omega" "k9";
  L.close t2;
  let t3 = L.create ~journal:path () in
  check_bool "post-replay mutations persist" true (L.find t3 "omega" <> None);
  check_int "all four devices" 4 (List.length (L.devices t3));
  L.close t3

let test_journal_torn_line () =
  with_temp_journal @@ fun path ->
  let t = L.create ~journal:path () in
  reg t "keep" "k";
  L.close t;
  (* crash mid-append: a final record without its newline is dropped *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "register\ttorn-dev";
  close_out oc;
  let t2 = L.create ~journal:path () in
  check_bool "torn record dropped" true (L.find t2 "torn-dev" = None);
  check_bool "intact record survives" true (L.find t2 "keep" <> None);
  L.close t2;
  (* garbled-but-complete lines are skipped, never fatal: terminating
     the torn line turns it into a short (2-field) register record, and
     the next line is pure nonsense *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\nnonsense\tfields\there\n";
  close_out oc;
  let t3 = L.create ~journal:path () in
  check_bool "short record skipped" true (L.find t3 "torn-dev" = None);
  check_int "registry intact" 1 (List.length (L.devices t3));
  L.close t3

(* ------------------------------------------------------------- *)
(* QCheck: across any operation sequence, the only transition out of
   quarantine is an explicit successful release.                    *)

let qcheck_no_silent_release =
  let id a = "d" ^ string_of_int (a mod 5) in
  let key b = "k" ^ string_of_int (b mod 3) in
  let apply lc (tag, a, b) =
    match tag mod 6 with
    | 0 -> ignore (L.register lc ~id:(id a) ~key_id:(key b) : (unit, string) result); None
    | 1 -> ignore (L.revoke_key lc (key b) : int); None
    | 2 -> ignore (L.quarantine lc (id a) : bool); None
    | 3 ->
      (match L.release lc (id a) with
       | Ok () -> Some (id a)  (* the one sanctioned exit *)
       | Error _ -> None)
    | 4 -> L.note_attested lc (id a); None
    | _ ->
      ignore
        (L.admit lc ~device_id:(id a) ~firmware:"" : (unit, L.denial) result);
      None
  in
  QCheck.Test.make
    ~name:"lifecycle: quarantine only exits through release" ~count:300
    QCheck.(list (triple small_nat small_nat small_nat))
    (fun ops ->
       let lc = L.create () in
       List.for_all
         (fun op ->
            let quarantined_before =
              List.filter_map
                (fun d ->
                   match d.L.state with
                   | L.Quarantined _ -> Some d.L.id
                   | L.Registered | L.Attested -> None)
                (L.devices lc)
            in
            let released = apply lc op in
            List.for_all
              (fun qid ->
                 released = Some qid
                 || (match state_of lc qid with
                     | L.Quarantined _ -> true
                     | L.Registered | L.Attested -> false))
              quarantined_before)
         ops)

(* ------------------------------------------------------------- *)
(* The same rules enforced end-to-end through the gateway, over the
   loopback and over TCP.                                          *)

let lc_stats (stats : N.Server.stats) =
  match stats.N.Server.lifecycle with
  | Some l -> l
  | None -> Alcotest.fail "no lifecycle section in stats"

let lifecycle_config ?resolve_plan ?plan_cache lc =
  let base = Test_net.gateway_config in
  { base with
    N.Server.lifecycle = Some lc;
    resolve_plan;
    plan_cache =
      (match plan_cache with Some _ -> plan_cache | None -> base.N.Server.plan_cache) }

let test_gw_revoked_at_handshake transport =
  let lc = L.create () in
  reg lc "dev-r" "k-r";
  ignore (L.revoke_key lc "k-r" : int);
  Test_net.with_gateway ~config:(lifecycle_config lc) ~transport
    (fun ~server ~dial ~device ->
       (* pipelined greeting: the denial is data, not an exception *)
       let conn = dial () in
       let session =
         N.Client.attest_pipelined ~config:Test_net.client_config ~window:4
           ~device ~device_id:"dev-r" ~rounds:4 conn
       in
       N.Transport.close conn;
       (match session.N.Client.denied with
        | Some (N.Codec.Revoked, _) -> ()
        | Some (c, _) ->
          Alcotest.failf "wrong cause %s" (N.Codec.denial_to_string c)
        | None -> Alcotest.fail "revoked prover was served");
       check_int "nothing granted" 0 session.N.Client.granted;
       check_int "no results" 0 (Array.length session.N.Client.results);
       (* legacy greeting: the same typed outcome *)
       let conn = dial () in
       let session =
         N.Client.attest_rounds ~config:Test_net.client_config ~device
           ~device_id:"dev-r" ~rounds:1 conn
       in
       N.Transport.close conn;
       (match session.N.Client.denied with
        | Some (N.Codec.Revoked, _) -> ()
        | _ -> Alcotest.fail "revoked prover was served (legacy)");
       check_int "nothing granted (legacy)" 0 session.N.Client.granted;
       check_int "no results (legacy)" 0
         (Array.length session.N.Client.results);
       check_bool "denial quarantined the device" true
         (state_of lc "dev-r" = L.Quarantined L.Key_revoked);
       let stats = N.Server.stop server in
       let l = lc_stats stats in
       check_int "both denials counted" 2 l.N.Server.lc_denied_revoked;
       check_int "nothing admitted" 0 l.N.Server.lc_admitted;
       check_int "no verdicts issued" 0 stats.N.Server.verdicts_accepted)

let test_gw_stale_firmware transport =
  let lc = L.create () in
  reg lc "dev-fw" "k-fw";
  L.set_stable lc "2.0";
  Test_net.with_gateway ~config:(lifecycle_config lc) ~transport
    (fun ~server ~dial ~device ->
       let conn = dial () in
       let session =
         N.Client.attest_pipelined ~config:Test_net.client_config ~window:2
           ~firmware:"0.9" ~device ~device_id:"dev-fw" ~rounds:2 conn
       in
       N.Transport.close conn;
       (match session.N.Client.denied with
        | Some (N.Codec.Stale_firmware, _) -> ()
        | _ -> Alcotest.fail "retired firmware was admitted");
       (* stale firmware is a policy miss, not an attack: the device is
          NOT quarantined and attests fine once it updates *)
       check_bool "still Registered after stale denial" true
         (state_of lc "dev-fw" = L.Registered);
       let conn = dial () in
       let session =
         N.Client.attest_pipelined ~config:Test_net.client_config ~window:2
           ~firmware:"2.0" ~device ~device_id:"dev-fw" ~rounds:3 conn
       in
       N.Transport.close conn;
       check_bool "updated device served" true (session.N.Client.denied = None);
       check_bool "all rounds accepted" true
         (Array.for_all
            (fun (r : N.Client.pipelined_round) -> r.N.Client.p_accepted)
            session.N.Client.results);
       check_bool "device now Attested" true (state_of lc "dev-fw" = L.Attested);
       let stats = N.Server.stop server in
       let l = lc_stats stats in
       check_int "one stale denial" 1 l.N.Server.lc_denied_stale;
       check_int "one admission" 1 l.N.Server.lc_admitted;
       check_int "three credited verdicts" 3 l.N.Server.lc_attested)

let test_gw_midsession_revocation transport =
  (* the window is granted, a round completes, THEN the key is pulled:
     the very next frame gets a typed Denied and no verdict is ever
     delivered past the revocation *)
  let lc = L.create () in
  reg lc "dev-mid" "k-mid";
  Test_net.with_gateway ~config:(lifecycle_config lc) ~transport
    (fun ~server ~dial ~device ->
       let p = Peer.create (dial ()) in
       let granted =
         Test_net.pipelined_handshake p ~device_id:"dev-mid" ~window:4
       in
       check_int "window granted before revocation" 4 granted;
       (* one honest round proves the session was healthy *)
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
        | m -> Alcotest.failf "expected Verdict, got %a" N.Codec.pp_msg m);
       (* now the operator pulls the key mid-window *)
       ignore (L.revoke_key lc "k-mid" : int);
       Peer.send p N.Codec.Ready;
       (match Peer.msg p with
        | N.Codec.Denied { cause = N.Codec.Revoked; _ } -> ()
        | m -> Alcotest.failf "expected Denied, got %a" N.Codec.pp_msg m);
       (* the session is cut: no verdict, no request, nothing follows
          the Denied — the connection just ends *)
       (match Peer.recv ~deadline:1.0 p with
        | `Eof | `Error _ | `Timeout -> ()
        | `Msg m -> Alcotest.failf "frame after Denied: %a" N.Codec.pp_msg m);
       Peer.close p;
       check_bool "revocation quarantined mid-session" true
         (state_of lc "dev-mid" = L.Quarantined L.Key_revoked);
       let stats = N.Server.stop server in
       let l = lc_stats stats in
       check_int "counted as a mid-session cut" 1
         l.N.Server.lc_midsession_denials;
       check_int "admitted once" 1 l.N.Server.lc_admitted;
       check_int "only the pre-revocation verdict credited" 1
         l.N.Server.lc_attested)

let test_gw_quarantine_release transport =
  let lc = L.create () in
  reg lc "dev-q" "k-q";
  ignore (L.quarantine lc "dev-q" : bool);
  Test_net.with_gateway ~config:(lifecycle_config lc) ~transport
    (fun ~server ~dial ~device ->
       let conn = dial () in
       let session =
         N.Client.attest_pipelined ~config:Test_net.client_config ~window:2
           ~device ~device_id:"dev-q" ~rounds:2 conn
       in
       N.Transport.close conn;
       (match session.N.Client.denied with
        | Some (N.Codec.Quarantined_device, _) -> ()
        | _ -> Alcotest.fail "quarantined prover was served");
       (* still quarantined: a second attempt changes nothing *)
       check_bool "stays quarantined" true
         (state_of lc "dev-q" = L.Quarantined L.Admin);
       (match L.release lc "dev-q" with
        | Ok () -> () | Error m -> Alcotest.fail m);
       let conn = dial () in
       let session =
         N.Client.attest_pipelined ~config:Test_net.client_config ~window:2
           ~device ~device_id:"dev-q" ~rounds:2 conn
       in
       N.Transport.close conn;
       check_bool "served after release" true (session.N.Client.denied = None);
       check_bool "all accepted" true
         (Array.for_all
            (fun (r : N.Client.pipelined_round) -> r.N.Client.p_accepted)
            session.N.Client.results);
       check_bool "re-attested" true (state_of lc "dev-q" = L.Attested);
       let stats = N.Server.stop server in
       let l = lc_stats stats in
       check_int "one quarantine denial" 1 l.N.Server.lc_denied_quarantined;
       check_int "one admission" 1 l.N.Server.lc_admitted)

let test_gw_anonymous_policy transport =
  (* open registry: peers outside the registry are served and counted
     as anonymous, never credited as attested *)
  let lc = L.create () in
  reg lc "dev-known" "k";
  Test_net.with_gateway ~config:(lifecycle_config lc) ~transport
    (fun ~server ~dial ~device ->
       List.iter
         (fun id ->
            let conn = dial () in
            let session =
              N.Client.attest_pipelined ~config:Test_net.client_config
                ~window:2 ~device ~device_id:id ~rounds:1 conn
            in
            N.Transport.close conn;
            check_bool (id ^ " served") true (session.N.Client.denied = None))
         [ "ghost-1"; "ghost-2"; "dev-known" ];
       let stats = N.Server.stop server in
       let l = lc_stats stats in
       check_int "two anonymous sessions" 2 l.N.Server.lc_anonymous;
       check_int "one registered admission" 1 l.N.Server.lc_admitted;
       check_int "only the registered device credited" 1 l.N.Server.lc_attested);
  (* closed registry: same traffic, unknowns now bounce *)
  let lc = L.create ~allow_anonymous:false () in
  reg lc "dev-known" "k";
  Test_net.with_gateway ~config:(lifecycle_config lc) ~transport
    (fun ~server ~dial ~device ->
       let conn = dial () in
       let session =
         N.Client.attest_pipelined ~config:Test_net.client_config ~window:2
           ~device ~device_id:"ghost-1" ~rounds:1 conn
       in
       N.Transport.close conn;
       (match session.N.Client.denied with
        | Some (N.Codec.Unknown_device, _) -> ()
        | _ -> Alcotest.fail "unknown prover served under closed policy");
       let conn = dial () in
       let session =
         N.Client.attest_pipelined ~config:Test_net.client_config ~window:2
           ~device ~device_id:"dev-known" ~rounds:1 conn
       in
       N.Transport.close conn;
       check_bool "registered device still served" true
         (session.N.Client.denied = None);
       let stats = N.Server.stop server in
       let l = lc_stats stats in
       check_int "unknown denial counted" 1 l.N.Server.lc_denied_unknown;
       check_int "no anonymous sessions" 0 l.N.Server.lc_anonymous)

let test_gw_staged_rollout transport =
  (* two firmware versions live at once: the canary cohort's reports
     verify against the canary app's plan, everyone else against the
     stable plan, and both plans stay resident in the operator's LRU *)
  let stable_app = Apps.fire_sensor and canary_app = Apps.ultrasonic_ranger in
  let stable_built = Apps.build stable_app in
  let canary_built = Apps.build canary_app in
  let pcache = F.Plan.cache () in
  let stable_plan = F.Plan.find_or_build pcache stable_built in
  let lc = L.create ~allow_anonymous:false () in
  L.set_stable lc "1.0";
  (match L.begin_canary lc ~version:"1.1" ~percent:50 with
   | Ok () -> () | Error m -> Alcotest.fail m);
  (* draw ids until both cohorts have four members — the split is a
     deterministic hash, so this terminates the same way every run *)
  let canary_ids = ref [] and stable_ids = ref [] and i = ref 0 in
  while List.length !canary_ids < 4 || List.length !stable_ids < 4 do
    let id = Printf.sprintf "roll-%04d" !i in
    incr i;
    if L.assigned_canary lc id then begin
      if List.length !canary_ids < 4 then canary_ids := id :: !canary_ids
    end
    else if List.length !stable_ids < 4 then stable_ids := id :: !stable_ids
  done;
  let fleet = !canary_ids @ !stable_ids in
  List.iteri (fun i id -> reg lc id (Printf.sprintf "k-%d" i)) fleet;
  let resolve_plan = function
    | "1.0" -> Some (F.Plan.find_or_build pcache stable_built)
    | "1.1" -> Some (F.Plan.find_or_build pcache canary_built)
    | _ -> None
  in
  let config =
    lifecycle_config ~resolve_plan ~plan_cache:pcache lc
  in
  let listener, dial = Test_net.listen transport in
  let server = N.Server.create ~config ~plan:stable_plan listener in
  N.Server.start server;
  Fun.protect
    ~finally:(fun () -> ignore (N.Server.stop server))
    (fun () ->
       List.iter
         (fun id ->
            let app, built =
              if L.assigned_canary lc id then (canary_app, canary_built)
              else (stable_app, stable_built)
            in
            let device () =
              let d = C.Pipeline.device built in
              app.Apps.setup d;
              d
            in
            let fw = L.expected_firmware lc id in
            let conn = dial () in
            let session =
              N.Client.attest_pipelined ~config:Test_net.client_config
                ~window:2 ~firmware:fw ~device ~device_id:id ~rounds:2 conn
            in
            N.Transport.close conn;
            check_bool (id ^ " served") true (session.N.Client.denied = None);
            check_bool (id ^ " all accepted") true
              (Array.for_all
                 (fun (r : N.Client.pipelined_round) -> r.N.Client.p_accepted)
                 session.N.Client.results))
         fleet;
       check_bool "a canary device attested" true
         (state_of lc (List.hd !canary_ids) = L.Attested);
       check_bool "a stable device attested" true
         (state_of lc (List.hd !stable_ids) = L.Attested);
       (* the final stats: a live snapshot can land before the loop has
          credited the last verdict it sent *)
       let stats = N.Server.stop server in
       let l = lc_stats stats in
       check_int "whole fleet admitted" 8 l.N.Server.lc_admitted;
       check_int "no denials" 0
         (l.N.Server.lc_denied_unknown + l.N.Server.lc_denied_revoked
          + l.N.Server.lc_denied_quarantined + l.N.Server.lc_denied_stale);
       check_int "every verdict credited" 16 l.N.Server.lc_attested;
       (* the rollout's plan-cache witness: exactly the two versions'
          plans were ever built, nothing was evicted *)
       match stats.N.Server.plan_cache with
       | None -> Alcotest.fail "no plan-cache section in stats"
       | Some pc ->
         check_int "two plan builds" 2 pc.F.Plan.cc_misses;
         check_int "no evictions" 0 pc.F.Plan.cc_evictions;
         check_int "both plans resident" 2 pc.F.Plan.cc_resident)

(* ------------------------------------------------------------- *)

let suites =
  [ ("lifecycle",
     [ Alcotest.test_case "state machine" `Quick test_state_machine;
       Alcotest.test_case "revocation" `Quick test_revocation;
       Alcotest.test_case "admit and recheck" `Quick test_admit_recheck;
       Alcotest.test_case "rollout" `Quick test_rollout;
       Alcotest.test_case "canary cohorts" `Quick test_canary_cohorts;
       Alcotest.test_case "journal replay" `Quick test_journal_replay;
       Alcotest.test_case "journal torn line" `Quick test_journal_torn_line;
       QCheck_alcotest.to_alcotest qcheck_no_silent_release ]);
    ("lifecycle-gateway",
     Test_net.over_transports
       [ ("revoked at handshake", test_gw_revoked_at_handshake);
         ("stale firmware", test_gw_stale_firmware);
         ("revoked mid-window", test_gw_midsession_revocation);
         ("quarantine and release", test_gw_quarantine_release);
         ("anonymous policy", test_gw_anonymous_policy);
         ("staged rollout", test_gw_staged_rollout) ]) ]
