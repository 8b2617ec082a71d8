module A = Dialed_apex
module Sha256 = Dialed_crypto.Sha256

type request = {
  challenge : string;
  args : int list;
}

(* ------------------------------------------------------------------ *)
(* Challenge gate: the verifier-side freshness state, independent of
   any verifier. Challenges are derived deterministically (seed,
   per-process session instance, counter) — reproducible run to run,
   yet never shared between two sessions, so a report accepted under
   one session can never satisfy a later session even if both were
   created with the same seed. Several challenges may be pending at
   once (a pipelined session's window); they are redeemed in any
   order.                                                             *)

type gate = {
  g_seed : string;
  g_instance : int;
  mutable g_counter : int;
  g_pending : (string, unit) Hashtbl.t;   (* issued, not yet redeemed *)
  g_used : (string, unit) Hashtbl.t;   (* challenges already consumed *)
}

let instances = Atomic.make 0

let make_gate ?(seed = "dialed-session-seed") () =
  { g_seed = seed; g_instance = Atomic.fetch_and_add instances 1;
    g_counter = 0; g_pending = Hashtbl.create 8;
    g_used = Hashtbl.create 8 }

let derive_challenge g =
  g.g_counter <- g.g_counter + 1;
  Sha256.digest (Printf.sprintf "%s|%d|%d" g.g_seed g.g_instance g.g_counter)

let gate_issue g ~args =
  let challenge = derive_challenge g in
  Hashtbl.replace g.g_pending challenge ();
  { challenge; args }

let gate_outstanding g = Hashtbl.length g.g_pending

let gate_redeem g req (report : A.Pox.report) =
  if not (Hashtbl.mem g.g_pending req.challenge) then
    if Hashtbl.mem g.g_used req.challenge then
      Error "challenge already consumed (replay)"
    else Error "challenge was never issued"
  else if Hashtbl.mem g.g_used report.A.Pox.challenge then begin
    (* the report answers some earlier, already-redeemed round: a replay
       presented against a live challenge. The live challenge stays
       pending — the round it belongs to was not answered. *)
    Error "challenge already consumed (replay)"
  end
  else if not (String.equal report.A.Pox.challenge req.challenge) then
    Error "response challenge is stale or replayed"
  else begin
    (* one challenge, one verification attempt, whatever the verifier
       later decides *)
    Hashtbl.remove g.g_pending req.challenge;
    Hashtbl.replace g.g_used req.challenge ();
    Ok ()
  end

(* ------------------------------------------------------------------ *)

type session = {
  gate : gate;
  verifier : Verifier.t;
}

let make_session ?seed verifier = { gate = make_gate ?seed (); verifier }

let next_request s ~args = gate_issue s.gate ~args

let prover_execute device req =
  let result = A.Device.run_operation ~args:req.args device in
  let report = A.Device.attest device ~challenge:req.challenge in
  (report, result)

let check_response s req report =
  match gate_redeem s.gate req report with
  | Error reason ->
    { Verifier.accepted = false;
      findings = [ Verifier.Bad_token reason ];
      trace = None }
  | Ok () -> Verifier.verify s.verifier report

let attest_round s device ~args =
  let req = next_request s ~args in
  let report, result = prover_execute device req in
  (check_response s req report, result)
