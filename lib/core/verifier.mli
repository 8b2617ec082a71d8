(** The DIALED verifier (Vrf): token checking plus abstract execution.

    Given a PoX report, Vrf (i) checks the HMAC token against the expected
    instrumented binary, (ii) {e replays} the operation in a sandboxed CPU,
    feeding every peripheral read from the authenticated I-Log and checking
    every log append the replay produces against the received log, and
    (iii) runs detectors over the reconstructed execution:

    - {b log divergence} — the replay and the device disagree on any log
      entry (unexplained input, forged entry, desynchronized control flow);
    - {b shadow call stack} — a return landed somewhere other than its
      call site (the Fig. 1 control-flow attack), or executed with no
      matching call at all (a forged return frame);
    - {b out-of-bounds accesses} — a store/load through an array whose
      effective address leaves the object's bounds, using the compiler's
      annotations (the Fig. 2 data-only attack);
    - {b user policies} — application predicates over the full trace
      (actuation limits, dosage rules, ...).

    Acceptance means: the token is genuine, EXEC = 1, the replay
    reconstructs the execution exactly, and no detector fired.

    {2 Verification plans}

    All per-firmware invariants — the assembled image, the expected ER
    bytes, the resolved annotation table, entry and exit addresses — live
    in an immutable {!plan} built once per {!Pipeline.built}. A plan is
    safe to share across OCaml 5 domains: {!verify_plan} allocates all
    mutable replay state (memory image, CPU, shadow stack) per call, so a
    fleet verifier can replay many reports against one plan in parallel
    (see [Dialed_fleet.Fleet]). {!create}/{!verify} remain as thin
    single-session wrappers. *)

type finding =
  | Bad_instrumentation of string
      (** the plan's static audit rejected the binary itself — no report
          over it is ever accepted (see {!Dialed_staticcheck.Audit}) *)
  | Bad_token of string
  | Wrong_layout of string
  | Log_divergence of {
      step : int; pc : int; addr : int;
      device_value : int; replay_value : int;
    }
  | Replay_failed of string
  | Shadow_stack_violation of { pc : int; expected : int option; actual : int }
      (** [expected = None]: the return executed with an empty shadow
          stack — no call frame to match (a return-into-the-operation). *)
  | Oob_access of {
      pc : int; kind : [ `Read | `Write ];
      array : string; ea : int; lo : int; hi : int;
    }
  | Policy_violation of { policy : string; reason : string }

val finding_kind : finding -> string
(** Stable short tag for a finding's constructor ("bad-token",
    "log-divergence", "shadow-stack", ...) — the key the fleet metrics
    aggregate rejects under. *)

val pp_finding : Format.formatter -> finding -> unit

type step = {
  s_index : int;
  s_pc : int;
  s_instr : Dialed_msp430.Isa.instr option;
  (** [None] when the step retired no instruction: interrupt vectoring,
      or a fetch that hit an invalid opcode. *)
  s_pc_after : int;
  s_accesses : Dialed_msp430.Memory.access list;
}

type trace = {
  steps : step list;              (** chronological; [[]] when the replay
                                      ran with [keep_trace:false] *)
  step_count : int;               (** steps actually replayed, regardless
                                      of retention *)
  cf_dests : int list;            (** CF-Log entries, in order *)
  inputs : int list;              (** I-Log entries, in order *)
  final_r4 : int;
  replay_memory : Dialed_msp430.Memory.t;  (** post-replay state *)
}

type policy = {
  policy_name : string;
  check : trace -> (unit, string) result;
}

type outcome = {
  accepted : bool;
  findings : finding list;
  trace : trace option;   (** present when the replay ran to completion *)
}

type plan
(** Immutable per-firmware verification invariants; safe to share across
    domains. Holds the device key, the expected build, the annotation
    table resolved to concrete addresses, and the policy list. *)

val plan :
  ?key:string -> ?policies:policy list -> ?max_steps:int ->
  ?decode_cache:bool -> ?audit:Dialed_staticcheck.Audit.config ->
  Pipeline.built -> plan
(** Build a plan from a [Full]-variant build (raises [Invalid_argument]
    otherwise). Resolving annotation expressions happens here, once, so
    {!verify_plan}'s replay loop is lookup-only. So does compiling the
    executable region: by default the plan decodes every ER slot into a
    {!Dialed_msp430.Decode_cache} and compiles it into
    {!Dialed_msp430.Cpu.executors}, one closure per slot specialized to
    its operation and operands. The table is built once and shared
    read-only by every replay, every scratch arena and every domain. It
    gives the replay CPU a fetchless path, and a replay without
    [keep_trace] a fused loop ({!Dialed_msp430.Cpu.run_unobserved})
    that runs the steps touching no memory without returning to the
    verifier: the detectors act only on steps that access memory, since
    log pushes and bounds checks read the step's accesses, a call
    pushes and a return pops. Pass [~decode_cache:false] to force byte-level fetch +
    decode on every step (the reference path; verdicts are identical
    either way, which [test_replay_equiv] pins).

    [max_steps] (default 2,000,000) bounds the replay: a replay that has
    not halted after [max_steps] steps is rejected, and one that halts
    on its [max_steps]-th step is complete, as {!Dialed_msp430.Cpu.run}
    counts on the device.

    [audit] arms the static gating stage: the binary-level auditor runs
    once here, at plan-build time, and its report rides in the plan.
    Every subsequent {!verify_plan} call rejects up front — before even
    looking at the token — when the audit found the instrumentation
    broken. Omitting [audit] skips the stage entirely — except for a
    {e selective} build ({!Pipeline.built.selective}), where the audit
    (including its dataflow pass) is a hard precondition of the reduced
    discipline and always runs, against the build's own
    [critical_ranges]. *)

val plan_audit : plan -> Dialed_staticcheck.Report.t option
(** The audit report captured at plan-build time, when [audit] was
    given. *)

val plan_memo_ns : plan -> string
(** The plan's memoization namespace, fixed at build time: a digest of
    everything a {e replay} verdict depends on beyond the log itself —
    the build fingerprint (image, layout, annotations), [max_steps], and
    the key (conservatively; it only affects the uncached token check).
    Two plans with equal namespaces produce identical {!replay_outcome}s
    for equal {!log_digest}s, so a verdict cache may key entries by
    [(plan_memo_ns, log_digest)]. A plan carrying policies gets a unique
    namespace — policy closures are opaque, so such plans never share
    cached verdicts. [decode_cache] is excluded: verdicts are pinned
    identical either way. *)

val log_digest : Dialed_apex.Pox.report -> string
(** Canonical digest (raw SHA-256 bytes) of the report material the
    replay consumes: the five claimed layout words plus the OR bytes.
    The challenge, token, and EXEC byte are {e excluded} — they are
    per-session authenticity material checked by {!precheck}, never by
    the replay. [Dialed_apex.Wire.decode_digested] computes the same
    digest incrementally during wire decode. *)

val audit_built :
  ?config:Dialed_staticcheck.Audit.config ->
  Pipeline.built -> Dialed_staticcheck.Report.t
(** Run the static auditor over an assembled build without building a
    plan: loads the image into a scratch memory and audits the ER range
    from its bytes alone. A selective build is audited against its own
    resolved critical ranges, whatever [config] says. Works on
    any variant — auditing a [Cfa_only]/[Unmodified] build is exactly how
    one demonstrates what the auditor rejects. *)

val audit_built_timed :
  ?config:Dialed_staticcheck.Audit.config ->
  Pipeline.built ->
  Dialed_staticcheck.Report.t * Dialed_staticcheck.Audit.timings
(** {!audit_built} plus the per-pass wall-clock breakdown
    (scan / register discipline / footprint / dataflow microseconds) —
    what the lint bench reports. *)

type scratch
(** A reusable replay arena: one 64 KiB sandbox {!Dialed_msp430.Memory}
    (with its attached oracle and decode-cache dirty map), one CPU, and
    the oracle's pairing state, reused across reports instead of being
    allocated per call. The arena binds lazily to whichever plan it is
    used with (rebinding on a plan change) and resets between reports by
    restoring only the pages the previous replay dirtied
    ({!Dialed_msp430.Memory.reset_to_snapshot}).

    A scratch belongs to one domain: sharing it across concurrent
    {!verify_plan} calls is a data race. Verdicts are bit-identical to
    the fresh-memory path — [test_adversarial] pins this over the
    tampered-report corpus. *)

val scratch : unit -> scratch
(** An unbound arena; the first {!verify_plan} call that receives it
    pays the one-time image load + snapshot. *)

val verify_plan :
  ?keep_trace:bool -> ?scratch:scratch -> plan ->
  Dialed_apex.Pox.report -> outcome
(** Replay one report against a shared plan. Without [scratch],
    allocates all mutable state locally — concurrent calls on the same
    plan are safe.

    [keep_trace] (default [true]) controls retention of the per-step
    {!step} list. With [~keep_trace:false] the replay still runs every
    detector but materializes no step records — [trace.steps] is empty
    while [trace.step_count] still counts — cutting the dominant
    allocation on the fleet path. Forced on when the plan carries
    policies, which inspect [trace.steps].

    [scratch] reuses the given arena for the replay sandbox. The
    returned [trace.replay_memory] then aliases the arena and is only
    valid until the arena's next use; policies (which run before
    returning) are unaffected.

    [verify_plan] is exactly {!precheck} followed (on [Ok]) by
    {!replay_outcome}; the split exists so a memoizing caller can run
    the per-session half on every report while caching the replay
    half. *)

val precheck :
  plan -> Dialed_apex.Pox.report -> (unit, finding) result
(** Stages 0–2 of verification: static-audit gate, layout consistency,
    token + EXEC. Everything that depends on per-session material (the
    challenge-bound token) and nothing that replays the log. A caller
    memoizing replay verdicts must run this on {e every} report — hit or
    miss — so a stale or forged token can never ride a cached verdict.
    [Error f] verdicts from here are never sound to cache by log digest:
    they depend on challenge/nonce material, not the log. *)

val replay_outcome :
  ?keep_trace:bool -> ?scratch:scratch -> plan ->
  Dialed_apex.Pox.report -> outcome
(** Stages 3–4: the abstract-execution replay plus policies, including
    the malformed-report catch ([Invalid_argument] from the log view
    becomes a [Replay_failed] finding). A pure function of
    [(plan, log_digest report)] — both acceptance and rejection — which
    is what makes its verdicts memoizable. Callers must have passed
    {!precheck} first; skipping it skips authenticity. *)

type t

val create :
  ?key:string -> ?policies:policy list -> ?max_steps:int ->
  ?audit:Dialed_staticcheck.Audit.config -> Pipeline.built -> t
(** The verifier holds the expected instrumented build (it produced or
    audited the binary at provisioning time) and the shared device key.
    Requires a [Full]-variant build. *)

val verify : t -> Dialed_apex.Pox.report -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
