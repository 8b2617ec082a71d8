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
   order.

   A challenge's first 4 bytes carry its counter (little-endian, low 32
   bits), so the gate remembers only what is pending: a challenge that
   is not pending was consumed exactly when it re-derives from a counter
   this gate already issued. Only the rejection path re-derives.       *)

type gate = {
  g_seed : string;
  g_instance : int;
  mutable g_counter : int;                (* challenges issued *)
  g_pending : (int, string) Hashtbl.t;    (* low 32 counter bits -> challenge *)
}

let instances = Atomic.make 0

let make_gate ?(seed = "dialed-session-seed") () =
  { g_seed = seed; g_instance = Atomic.fetch_and_add instances 1;
    g_counter = 0; g_pending = Hashtbl.create 8 }

let counter_mask = 0xFFFF_FFFF

let derive g n =
  let c =
    Bytes.of_string
      (Sha256.digest (Printf.sprintf "%s|%d|%d" g.g_seed g.g_instance n))
  in
  Bytes.set_int32_le c 0 (Int32.of_int n);
  Bytes.unsafe_to_string c

(* the low 32 counter bits [c] carries; -1, which no challenge carries,
   when [c] is too short *)
let counter_bits c =
  if String.length c < 4 then -1
  else Int32.to_int (String.get_int32_le c 0) land counter_mask

let is_pending g c =
  match Hashtbl.find_opt g.g_pending (counter_bits c) with
  | Some p -> String.equal p c
  | None -> false

(* issued by this gate and no longer pending. Past 2^32 rounds (the
   codec's sequence-number range) a replayed challenge is still
   rejected, but may be named never issued. *)
let is_consumed g c =
  let n = counter_bits c in
  n >= 1 && n <= g.g_counter && (not (is_pending g c))
  && String.equal (derive g n) c

let gate_issue g ~args =
  g.g_counter <- g.g_counter + 1;
  let challenge = derive g g.g_counter in
  Hashtbl.replace g.g_pending (g.g_counter land counter_mask) challenge;
  { challenge; args }

let gate_outstanding g = Hashtbl.length g.g_pending

let consumed = Error "challenge already consumed (replay)"

let gate_redeem g req (report : A.Pox.report) =
  if not (is_pending g req.challenge) then
    if is_consumed g req.challenge then consumed
    else Error "challenge was never issued"
  else if String.equal report.A.Pox.challenge req.challenge then begin
    (* one challenge, one verification attempt, whatever the verifier
       later decides *)
    Hashtbl.remove g.g_pending (counter_bits req.challenge);
    Ok ()
  end
  else if is_consumed g report.A.Pox.challenge then
    (* the report answers some earlier, already-redeemed round: a replay
       presented against a live challenge. The live challenge stays
       pending — the round it belongs to was not answered. *)
    consumed
  else Error "response challenge is stale or replayed"

let gate_retire g req =
  if is_pending g req.challenge then
    Hashtbl.remove g.g_pending (counter_bits req.challenge)

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
