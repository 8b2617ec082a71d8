(** The Vrf <-> Prv interaction (challenge-response around one attested
    execution of the embedded operation).

    A session tracks challenge freshness on the verifier side; the prover
    side executes the operation and attests. In deployment the two halves
    live on different machines — [Dialed_net] carries exactly these
    values over framed transports; here they can also be exchanged as
    plain OCaml values in-process. *)

type request = {
  challenge : string;
  args : int list;   (** operation arguments, r15 first *)
}

(** {2 Challenge gates}

    The freshness half of a session, decoupled from any verifier: the
    network gateway tracks one gate per connection and judges reports
    through the fleet engine instead of a per-session
    {!Verifier.t}. Challenges are derived deterministically from
    [(seed, session instance, counter)], where the instance number is
    unique per gate within a process — reproducible run to run, but a
    challenge is never issued twice, so a report accepted under one gate
    can never satisfy another gate created with the same seed (replay
    across sessions is rejected, not just replay within one).

    A gate keeps a pending {e set}, so a pipelined session can have up
    to a window of challenges live at once; a session that runs one
    round at a time redeems each challenge before it issues the next.

    A challenge is 32 bytes: its counter (little-endian, low 32 bits),
    then 28 bytes of SHA-256 over [(seed, instance, counter)]. The gate
    keeps only its pending challenges, keyed by counter, and tells a
    consumed challenge from a forged one by re-deriving it from the
    counter it carries, which it does on the rejection path only. So a
    gate's memory is bounded by its pending challenges, not by the
    rounds it has redeemed. *)

type gate

val make_gate : ?seed:string -> unit -> gate

val gate_issue : gate -> args:int list -> request
(** Derive the next challenge and add it to the pending set. *)

val gate_redeem : gate -> request -> Dialed_apex.Pox.report -> (unit, string) result
(** Redeem one pending challenge, in any order relative to other
    [gate_issue]s: reject when [req]'s challenge was never issued or
    already consumed, or when the report answers a different (stale,
    replayed) challenge. On [Ok] the challenge stops being pending,
    which makes it consumed. On [Error] a live [req] challenge stays
    pending: a caller that rejects the round, rather than waiting for
    its real answer, ends the challenge with {!gate_retire}. *)

val gate_retire : gate -> request -> unit
(** Stop [req]'s challenge being pending without redeeming it, for a
    round the caller rejected: its report did not decode, or
    {!gate_redeem} refused it. A retired challenge reads as consumed
    from then on, so the gate forgets it and a later report answering
    it is named a replay. A no-op when the challenge is not pending. *)

val gate_outstanding : gate -> int
(** Pending (issued, unredeemed) challenge count. *)

type session

val make_session : ?seed:string -> Verifier.t -> session
(** Verifier-side session: a {!gate} plus the verifier that judges
    reports. Challenge derivation is deterministic (no ambient
    randomness — see {!make_gate}), so runs are reproducible. *)

val next_request : session -> args:int list -> request
(** {!gate_issue} on the session's gate. *)

val prover_execute :
  Dialed_apex.Device.t -> request ->
  Dialed_apex.Pox.report * Dialed_apex.Device.run_result
(** Prover side: run the operation with the requested arguments, then
    attest with the challenge. *)

val check_response :
  session -> request -> Dialed_apex.Pox.report -> Verifier.outcome
(** Verifier side: {!gate_redeem} rejects stale/mismatched/replayed
    challenges (a [Bad_token] finding), then the full DIALED
    verification runs. *)

val attest_round :
  session -> Dialed_apex.Device.t -> args:int list ->
  Verifier.outcome * Dialed_apex.Device.run_result
(** One full round against a local device: request, execute, verify. *)
