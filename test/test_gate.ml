(* Challenge-gate freshness: a report accepted once must never be
   accepted again — not within its session, and not by a fresh session
   created from the same deterministic seed (the cross-session replay
   that purely counter-derived challenges would allow). *)

module A = Dialed_apex
module C = Dialed_core
module Minic = Dialed_minic.Minic

let check_bool = Alcotest.(check bool)

let build () =
  let compiled = Minic.compile "int main(int a) { return a + 1; }" in
  C.Pipeline.build ~data:compiled.Minic.data ~op:compiled.Minic.op ()

let honest_report built req =
  let device = C.Pipeline.device built in
  fst (C.Protocol.prover_execute device req)

let test_gate_consumes_challenge () =
  let built = build () in
  let gate = C.Protocol.make_gate () in
  let req = C.Protocol.gate_issue gate ~args:[ 4 ] in
  let report = honest_report built req in
  (match C.Protocol.gate_redeem gate req report with
   | Ok () -> ()
   | Error e -> Alcotest.failf "fresh report rejected: %s" e);
  (match C.Protocol.gate_redeem gate req report with
   | Ok () -> Alcotest.fail "replayed report accepted"
   | Error _ -> ());
  (* the stale report cannot satisfy the next challenge either *)
  let req2 = C.Protocol.gate_issue gate ~args:[ 4 ] in
  match C.Protocol.gate_redeem gate req2 report with
  | Ok () -> Alcotest.fail "stale report accepted for a new challenge"
  | Error _ -> ()

let test_gate_instances_never_repeat_challenges () =
  (* two gates from the same seed (a verifier restart) must not issue
     the same challenge — otherwise recorded reports replay *)
  let g1 = C.Protocol.make_gate ~seed:"same-seed" () in
  let g2 = C.Protocol.make_gate ~seed:"same-seed" () in
  let r1 = C.Protocol.gate_issue g1 ~args:[] in
  let r2 = C.Protocol.gate_issue g2 ~args:[] in
  check_bool "distinct challenges across gate instances" true
    (r1.C.Protocol.challenge <> r2.C.Protocol.challenge)

let test_session_rejects_same_session_replay () =
  let built = build () in
  let session = C.Protocol.make_session (C.Verifier.create built) in
  let req1 = C.Protocol.next_request session ~args:[ 4 ] in
  let report1 = honest_report built req1 in
  let first = C.Protocol.check_response session req1 report1 in
  check_bool "first presentation accepted" true first.C.Verifier.accepted;
  let second = C.Protocol.check_response session req1 report1 in
  check_bool "second presentation rejected" true
    (not second.C.Verifier.accepted);
  let req2 = C.Protocol.next_request session ~args:[ 4 ] in
  let cross = C.Protocol.check_response session req2 report1 in
  check_bool "old report rejected for new challenge" true
    (not cross.C.Verifier.accepted)

let test_session_rejects_cross_session_replay () =
  let built = build () in
  let seed = "restart-seed" in
  let s1 = C.Protocol.make_session ~seed (C.Verifier.create built) in
  let req1 = C.Protocol.next_request s1 ~args:[ 4 ] in
  let report1 = honest_report built req1 in
  let first = C.Protocol.check_response s1 req1 report1 in
  check_bool "first session accepts" true first.C.Verifier.accepted;
  (* attacker records report1; the verifier restarts with the same
     deterministic seed — the recorded report must not satisfy it *)
  let s2 = C.Protocol.make_session ~seed (C.Verifier.create built) in
  let req2 = C.Protocol.next_request s2 ~args:[ 4 ] in
  let replay = C.Protocol.check_response s2 req2 report1 in
  check_bool "cross-session replay rejected" true
    (not replay.C.Verifier.accepted);
  (* the fresh session still serves honest provers *)
  let req3 = C.Protocol.next_request s2 ~args:[ 4 ] in
  let report3 = honest_report built req3 in
  let honest = C.Protocol.check_response s2 req3 report3 in
  check_bool "fresh session accepts honest report" true
    honest.C.Verifier.accepted

(* --------------------------------------------------------------- *)
(* Windowed gates: several challenges pending at once, redeemed in
   any order.                                                        *)

let check_int = Alcotest.(check int)

let test_gate_window_out_of_order_redeem () =
  let built = build () in
  let gate = C.Protocol.make_gate () in
  let reqs = List.init 5 (fun _ -> C.Protocol.gate_issue gate ~args:[ 4 ]) in
  check_int "five pending" 5 (C.Protocol.gate_outstanding gate);
  (* redeem 3, 0, 4, 1, 2: order must not matter *)
  let order = [ 3; 0; 4; 1; 2 ] in
  List.iter
    (fun i ->
       let req = List.nth reqs i in
       let report = honest_report built req in
       match C.Protocol.gate_redeem gate req report with
       | Ok () -> ()
       | Error e -> Alcotest.failf "redeem %d rejected: %s" i e)
    order;
  check_int "none pending" 0 (C.Protocol.gate_outstanding gate)

let test_gate_window_rejects_replay_and_unissued () =
  let built = build () in
  let gate = C.Protocol.make_gate () in
  let req = C.Protocol.gate_issue gate ~args:[ 4 ] in
  let report = honest_report built req in
  (match C.Protocol.gate_redeem gate req report with
   | Ok () -> ()
   | Error e -> Alcotest.failf "fresh redeem rejected: %s" e);
  (* same challenge again: consumed *)
  (match C.Protocol.gate_redeem gate req report with
   | Ok () -> Alcotest.fail "double redeem accepted"
   | Error _ -> ());
  (* a challenge this gate never issued *)
  let forged = { req with C.Protocol.challenge = String.make 32 'f' } in
  (match C.Protocol.gate_redeem gate forged report with
   | Ok () -> Alcotest.fail "unissued challenge accepted"
   | Error e ->
     check_bool "says never issued" true
       (e = "challenge was never issued"));
  (* an old report presented against a live pending challenge: the
     pending challenge must survive for its real answer *)
  let req2 = C.Protocol.gate_issue gate ~args:[ 4 ] in
  (match C.Protocol.gate_redeem gate req2 report with
   | Ok () -> Alcotest.fail "stale report accepted for live challenge"
   | Error _ -> ());
  check_int "live challenge still pending" 1
    (C.Protocol.gate_outstanding gate);
  let report2 = honest_report built req2 in
  match C.Protocol.gate_redeem gate req2 report2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest answer rejected after replay: %s" e

let test_gate_never_repeats_a_challenge () =
  (* one gate must never produce the same challenge twice *)
  let gate = C.Protocol.make_gate () in
  let seen = Hashtbl.create 16 in
  for _ = 0 to 19 do
    let req = C.Protocol.gate_issue gate ~args:[] in
    check_bool "challenge is fresh" true
      (not (Hashtbl.mem seen req.C.Protocol.challenge));
    Hashtbl.replace seen req.C.Protocol.challenge ()
  done

let test_gate_memory_bounded () =
  (* the gate forgets what it consumed, yet still names a replay of an
     early round: 10,000 redeemed rounds leave it no bigger than twice
     its size after 10 *)
  let report =
    honest_report (build ()) { C.Protocol.challenge = ""; args = [] }
  in
  let answer req = { report with A.Pox.challenge = req.C.Protocol.challenge } in
  let gate = C.Protocol.make_gate () in
  let redeem req report = C.Protocol.gate_redeem gate req report in
  let first = C.Protocol.gate_issue gate ~args:[] in
  let words = ref 0 in
  for i = 1 to 10_000 do
    let req = if i = 1 then first else C.Protocol.gate_issue gate ~args:[] in
    check_bool "honest round accepted" true (redeem req (answer req) = Ok ());
    if i = 10 then words := Obj.reachable_words (Obj.repr gate)
  done;
  let words_10k = Obj.reachable_words (Obj.repr gate) in
  check_bool (Printf.sprintf "%d words after 10,000 rounds, %d after 10"
                words_10k !words) true (words_10k <= 2 * !words);
  let consumed = Error "challenge already consumed (replay)" in
  check_bool "first round replayed" true
    (redeem first (answer first) = consumed);
  check_bool "first round's report against a live challenge" true
    (redeem (C.Protocol.gate_issue gate ~args:[]) (answer first) = consumed)

let suites =
  [ ("protocol-gate",
     [ Alcotest.test_case "challenge consumed on accept" `Quick
         test_gate_consumes_challenge;
       Alcotest.test_case "gate instances never repeat" `Quick
         test_gate_instances_never_repeat_challenges;
       Alcotest.test_case "same-session replay rejected" `Quick
         test_session_rejects_same_session_replay;
       Alcotest.test_case "cross-session replay rejected" `Quick
         test_session_rejects_cross_session_replay;
       Alcotest.test_case "windowed out-of-order redeem" `Quick
         test_gate_window_out_of_order_redeem;
       Alcotest.test_case "windowed replay/unissued rejected" `Quick
         test_gate_window_rejects_replay_and_unissued;
       Alcotest.test_case "one gate never repeats a challenge" `Quick
         test_gate_never_repeats_a_challenge;
       Alcotest.test_case "gate memory stays bounded" `Quick
         test_gate_memory_bounded ]) ]
