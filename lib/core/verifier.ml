module M = Dialed_msp430
module Memory = M.Memory
module Cpu = M.Cpu
module Isa = M.Isa
module P = M.Program
module Assemble = M.Assemble
module A = Dialed_apex
module Hmac = Dialed_crypto.Hmac
module S = Dialed_staticcheck

type finding =
  | Bad_instrumentation of string
  | Bad_token of string
  | Wrong_layout of string
  | Log_divergence of {
      step : int; pc : int; addr : int;
      device_value : int; replay_value : int;
    }
  | Replay_failed of string
  | Shadow_stack_violation of { pc : int; expected : int option; actual : int }
  | Oob_access of {
      pc : int; kind : [ `Read | `Write ];
      array : string; ea : int; lo : int; hi : int;
    }
  | Policy_violation of { policy : string; reason : string }

let finding_kind f =
  match f with
  | Bad_instrumentation _ -> "bad-instrumentation"
  | Bad_token _ -> "bad-token"
  | Wrong_layout _ -> "wrong-layout"
  | Log_divergence _ -> "log-divergence"
  | Replay_failed _ -> "replay-failed"
  | Shadow_stack_violation _ -> "shadow-stack"
  | Oob_access _ -> "oob-access"
  | Policy_violation _ -> "policy"

let pp_finding ppf f =
  match f with
  | Bad_instrumentation msg ->
    Format.fprintf ppf "static audit rejected the binary: %s" msg
  | Bad_token msg -> Format.fprintf ppf "token rejected: %s" msg
  | Wrong_layout msg -> Format.fprintf ppf "layout mismatch: %s" msg
  | Log_divergence { step; pc; addr; device_value; replay_value } ->
    Format.fprintf ppf
      "log divergence at step %d (pc 0x%04x): OR[0x%04x] device=0x%04x \
       replay=0x%04x"
      step pc addr device_value replay_value
  | Replay_failed msg -> Format.fprintf ppf "replay failed: %s" msg
  | Shadow_stack_violation { pc; expected = Some expected; actual } ->
    Format.fprintf ppf
      "control-flow attack: return at 0x%04x went to 0x%04x, call site \
       expects 0x%04x"
      pc actual expected
  | Shadow_stack_violation { pc; expected = None; actual } ->
    Format.fprintf ppf
      "control-flow attack: return at 0x%04x went to 0x%04x with no \
       matching call on the shadow stack"
      pc actual
  | Oob_access { pc; kind; array; ea; lo; hi } ->
    Format.fprintf ppf
      "data-only attack: out-of-bounds %s of '%s' at pc 0x%04x \
       (address 0x%04x outside [0x%04x,0x%04x])"
      (match kind with `Read -> "read" | `Write -> "write")
      array pc ea lo hi
  | Policy_violation { policy; reason } ->
    Format.fprintf ppf "policy '%s' violated: %s" policy reason

type step = {
  s_index : int;
  s_pc : int;
  s_instr : Isa.instr option;
  s_pc_after : int;
  s_accesses : Memory.access list;
}

type trace = {
  steps : step list;
  step_count : int;
  cf_dests : int list;
  inputs : int list;
  final_r4 : int;
  replay_memory : Memory.t;
}

type policy = {
  policy_name : string;
  check : trace -> (unit, string) result;
}

type outcome = {
  accepted : bool;
  findings : finding list;
  trace : trace option;
}

(* A site is an annotation resolved against the image's symbol table once,
   at plan-build time, so the replay's hot loop does no expression
   evaluation and no symbol lookups. *)
type site =
  | Log_cf
  | Log_input
  | Store_bounds of { array : string; lo : int; hi : int }
  | Load_bounds of { array : string; lo : int; hi : int }

type plan = {
  plan_key_state : Hmac.key_state;
  plan_built : Pipeline.built;
  plan_sites : site list array;  (* see [sites_at]; read-only after build *)
  plan_sites_lo : int;
  plan_execs : Cpu.executors option;  (* the compiled ER; read-only *)
  plan_entry : int;
  plan_caller_ret : int;
  plan_policies : policy list;
  plan_max_steps : int;
  plan_audit : S.Report.t option;
  plan_ns : string;              (* memo namespace, fixed at build time *)
}

(* The resolved annotation sites at [pc]: the table has one slot per
   word from [lo] (instruction addresses are word-aligned), and no pc
   outside it carries any. *)
let sites_at sites lo pc =
  let i = (pc - lo) asr 1 in
  if pc land 1 = 0 && i >= 0 && i < Array.length sites then
    Array.unsafe_get sites i
  else []

(* The audit configuration a build must be judged against: a selective
   build is audited with its own resolved critical ranges, whatever the
   caller passed — auditing a reduced-discipline binary against the full
   discipline (or with no critical set) would be meaningless. *)
let effective_audit_config ?(config = S.Audit.default_config) built =
  if built.Pipeline.selective then
    { config with
      S.Audit.selective = Some built.Pipeline.critical_ranges }
  else config

(* Run the static auditor over an assembled build: load the image into a
   scratch memory and audit the ER range by its bytes alone. *)
let audit_built_timed ?config built =
  let config = effective_audit_config ?config built in
  let scratch = Memory.create () in
  Assemble.load built.Pipeline.image scratch;
  let open A.Layout in
  let l = built.Pipeline.layout in
  S.Audit.audit_timed ~config ~mem:scratch ~er_min:l.er_min ~er_max:l.er_max
    ~or_min:l.or_min ~or_max:l.or_max ()

let audit_built ?config built = fst (audit_built_timed ?config built)

(* Plans whose policies differ must never share memo entries, but policy
   closures are opaque — so any plan carrying policies gets a namespace
   of its own via this process-wide counter. *)
let memo_ns_uid = Atomic.make 0

let plan ?(key = A.Device.default_key) ?(policies = [])
    ?(max_steps = 2_000_000) ?(decode_cache = true) ?audit built =
  (match built.Pipeline.variant with
   | Pipeline.Full -> ()
   | v ->
     invalid_arg
       (Printf.sprintf
          "Verifier.plan: replay verification needs the DIALED variant, got %s"
          (Pipeline.variant_name v)));
  (* a reduced-discipline (selective) build is only sound when the
     dataflow audit has proven its unlogged flows replayable — so the
     audit is a hard precondition of every selective plan, caller-armed
     or not, and it always runs with the build's critical ranges *)
  let audit =
    match audit with
    | Some config -> Some (effective_audit_config ~config built)
    | None when built.Pipeline.selective ->
      Some (effective_audit_config built)
    | None -> None
  in
  let resolved =
    List.filter_map
      (fun (addr, annots) ->
         let resolved =
           List.filter_map
             (fun an ->
                match an with
                | P.Log_site `Cf -> Some Log_cf
                | P.Log_site `Input -> Some Log_input
                | P.Array_store { array_name; base; size_bytes } ->
                  let lo = Pipeline.eval_expr built base in
                  Some (Store_bounds
                          { array = array_name; lo; hi = lo + size_bytes - 1 })
                | P.Array_load { array_name; base; size_bytes } ->
                  let lo = Pipeline.eval_expr built base in
                  Some (Load_bounds
                          { array = array_name; lo; hi = lo + size_bytes - 1 })
                | P.Synth_mark _ | P.Src_line _ -> None)
             annots
         in
         if resolved <> [] && addr land 1 = 0 then
           Some (addr land 0xFFFF, resolved)
         else None)
      built.Pipeline.image.Assemble.annots
  in
  (* one slot per word of the annotated range, not of the address
     space: 32,768 slots cost a fresh process ~0.14 ms to allocate *)
  let sites_lo = List.fold_left (fun m (a, _) -> min m a) 0xFFFF resolved
  and sites_hi = List.fold_left (fun m (a, _) -> max m a) 0 resolved in
  let sites =
    Array.make
      (if resolved = [] then 0 else ((sites_hi - sites_lo) lsr 1) + 1) []
  in
  List.iter
    (fun (a, r) ->
       let i = (a - sites_lo) lsr 1 in
       sites.(i) <- sites.(i) @ r)
    resolved;
  (* one scratch memory serves both the decode-cache prebuild and the
     static audit; it is garbage once the plan is built *)
  let scratch =
    if decode_cache || audit <> None then begin
      let m = Memory.create () in
      Assemble.load built.Pipeline.image m;
      Some m
    end
    else None
  in
  let open A.Layout in
  let l = built.Pipeline.layout in
  let execs =
    match scratch with
    | Some m when decode_cache ->
      (* predecode the executable region once; APEX guarantees ER
         immutability on the device, and the replay memory's dirty map
         catches any replayed write into cached code. Ranging the cache
         to the ER keeps each replay's dirty map firmware-sized. *)
      Some
        (Cpu.compile
           (M.Decode_cache.build ~lo:(l.er_min land 0xFFFE) ~hi:l.er_max
              ~get_word:(Memory.peek16 m) ()))
    | _ -> None
  in
  let audit_report =
    match audit, scratch with
    | Some config, Some m ->
      Some
        (S.Audit.audit ~config ~mem:m ~er_min:l.er_min ~er_max:l.er_max
           ~or_min:l.or_min ~or_max:l.or_max ())
    | _ -> None
  in
  (* Memo namespace: everything a replay verdict depends on beyond the
     log itself. Fingerprint covers the image + layout + annotations;
     max_steps bounds the replay; the key rides along for conservatism
     (it only affects the uncached token check). decode_cache is
     deliberately excluded — verdicts are pinned identical either way.
     Policies are opaque closures, so a plan with any gets a unique
     namespace and never shares entries with another plan. *)
  let ns =
    let module Sha = Dialed_crypto.Sha256 in
    let b = Buffer.create 160 in
    Buffer.add_string b "DIALED-memo-ns-v1\x00";
    Buffer.add_string b (Pipeline.fingerprint built);
    Buffer.add_char b '\x00';
    Buffer.add_string b key;
    Buffer.add_char b '\x00';
    Buffer.add_string b (string_of_int max_steps);
    if policies <> [] then begin
      Buffer.add_char b '\x00';
      Buffer.add_string b (string_of_int (Atomic.fetch_and_add memo_ns_uid 1))
    end;
    Sha.hex (Sha.digest (Buffer.contents b))
  in
  { plan_key_state = Hmac.key_state ~key;
    plan_built = built;
    plan_sites = sites;
    plan_sites_lo = sites_lo;
    plan_execs = execs;
    plan_entry = Assemble.symbol built.Pipeline.image Pipeline.caller_symbol;
    plan_caller_ret =
      Assemble.symbol built.Pipeline.image Pipeline.caller_ret_symbol;
    plan_policies = policies;
    plan_max_steps = max_steps;
    plan_audit = audit_report;
    plan_ns = ns }

let plan_audit p = p.plan_audit
let plan_memo_ns p = p.plan_ns

let log_digest = A.Pox.log_digest

type t = { t_plan : plan }

let create ?key ?policies ?max_steps ?audit built =
  { t_plan = plan ?key ?policies ?max_steps ?audit built }

(* The peripheral oracle: a device over the MMIO space that answers every
   read with the value the Prover logged for it. The next log entry to be
   pushed always lives at the address r4 currently points to, because the
   instrumentation pushes a read's value before any other log activity.
   The oplog and pairing state live behind refs so a long-lived scratch
   arena can re-point one attached oracle at each report's log. *)
let attach_oracle_ref mem cpu oplog_ref last =
  let byte_of addr =
    let r4 = Cpu.get_reg cpu 4 in
    let entry = Oplog.word_at !oplog_ref r4 in
    let v =
      match !last with
      | Some (prev_addr, prev_r4) when prev_addr = addr - 1 && prev_r4 = r4 ->
        (* second half of a word-sized peripheral read *)
        M.Word.high_byte entry
      | Some _ | None -> M.Word.low_byte entry
    in
    last := Some (addr, r4);
    v
  in
  Memory.attach mem
    { Memory.dev_name = "ilog-oracle";
      dev_lo = 0x0000; dev_hi = 0x01FF;
      dev_read = (fun addr -> Some (byte_of addr));
      dev_write = (fun _ _ -> ());
      dev_tick = Memory.no_tick }

let attach_oracle mem cpu oplog = attach_oracle_ref mem cpu (ref oplog) (ref None)

(* ------------------------------------------------------------------ *)
(* Scratch arena: one replay sandbox reused across reports. Binding to a
   plan loads the image, attaches the oracle and decode cache, and takes
   a memory snapshot; each subsequent replay against the same plan
   resets by copying back only the pages the previous replay dirtied
   (Memory.reset_to_snapshot) instead of allocating and re-imaging a
   fresh 64 KiB Memory. Single-domain: a scratch must not be shared. *)

type scratch_state = {
  ss_mem : Memory.t;
  ss_cpu : Cpu.t;
  ss_plan : plan;                    (* bound by physical identity *)
  ss_oplog : Oplog.t ref;
  ss_last : (int * int) option ref;  (* oracle byte-pairing state *)
}

type scratch = { mutable sc_state : scratch_state option }

let scratch () = { sc_state = None }

let bind_scratch scratch p oplog =
  match scratch.sc_state with
  | Some ss when ss.ss_plan == p ->
    Memory.reset_to_snapshot ss.ss_mem;
    Cpu.reset ss.ss_cpu;
    ss.ss_oplog := oplog;
    ss.ss_last := None;
    ss
  | _ ->
    (* first use, or a different plan: rebuild the sandbox from scratch
       (devices cannot be detached), then snapshot the pristine image *)
    let mem = Memory.create () in
    let cpu = Cpu.create mem in
    let oplog_ref = ref oplog and last = ref None in
    attach_oracle_ref mem cpu oplog_ref last;
    Assemble.load p.plan_built.Pipeline.image mem;
    (match p.plan_execs with
     | Some x -> Cpu.attach_executors cpu x
     | None -> ());
    Memory.snapshot mem;
    let ss =
      { ss_mem = mem; ss_cpu = cpu; ss_plan = p;
        ss_oplog = oplog_ref; ss_last = last }
    in
    scratch.sc_state <- Some ss;
    ss

(* The replay proper: everything that touches attacker-controlled OR bytes.
   [Invalid_argument] from the log view (a report whose OR data cannot back
   the claimed layout) is caught by the caller and turned into a finding.

   The CPU writes each step's result into a reusable record, and the
   detectors read the step's packed access trace in place
   ({!Memory.trace}). A step that neither writes the OR, calls, returns
   nor faults allocates nothing here. Per-step [step] records are only
   materialized when [keep_trace] is set — policies need them, so it is
   forced on when the plan carries any — and then the loop runs one
   {!Cpu.step_raw} per step. Otherwise, over a compiled ER, it runs
   {!Cpu.run_unobserved}: the CPU runs on by itself through every step
   that touches no memory, and the detectors see only the step that
   stops it. They miss nothing: log pushes and bounds checks read the
   step's trace, a call pushes and a return pops. *)
let replay ?(keep_trace = true) ?scratch p report =
  let keep_trace = keep_trace || p.plan_policies <> [] in
  let fused = (not keep_trace) && p.plan_execs <> None in
  let built = p.plan_built in
  let layout = built.Pipeline.layout in
  let open A.Layout in
  let oplog = Oplog.of_report report in
  let mem, cpu =
    match scratch with
    | Some s ->
      let ss = bind_scratch s p oplog in
      (ss.ss_mem, ss.ss_cpu)
    | None ->
      let mem = Memory.create () in
      let cpu = Cpu.create mem in
      attach_oracle mem cpu oplog;
      Assemble.load built.Pipeline.image mem;
      (match p.plan_execs with
       | Some x -> Cpu.attach_executors cpu x
       | None -> ());
      (mem, cpu)
  in
  Cpu.set_reg cpu Isa.pc p.plan_entry;
  Cpu.set_reg cpu Isa.sp layout.stack_top;
  List.iteri (fun i v -> Cpu.set_reg cpu (8 + i) v) (Oplog.args oplog);
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let steps = ref [] in
  let cf_dests = ref [] and inputs = ref [] in
  let shadow = ref [] in
  let diverged = ref false in
  let in_or addr = addr >= layout.or_min && addr <= layout.or_max + 1 in
  let raw = Cpu.raw cpu in
  let tr = Memory.trace mem in
  let sites = p.plan_sites and sites_lo = p.plan_sites_lo in
  (* packed trace fields, see Memory.trace *)
  let kind a = (a lsr 32) land 0x3 and addr_of a = (a lsr 16) land 0xFFFF in
  let rec log_value value l =
    match l with
    | [] -> ()
    | Log_cf :: rest -> cf_dests := value :: !cf_dests; log_value value rest
    | Log_input :: rest -> inputs := value :: !inputs; log_value value rest
    | (Store_bounds _ | Load_bounds _) :: rest -> log_value value rest
  in
  (* log pushes: compare every OR write against the authenticated log *)
  let check_log_writes idx pc item_sites =
    for i = 0 to tr.Memory.tr_len - 1 do
      let a = Array.unsafe_get tr.Memory.tr_buf i in
      let addr = addr_of a in
      if kind a = 2 && in_or addr then begin
        let value = a land 0xFFFF in
        let device_value = Oplog.word_at oplog addr in
        if device_value <> value then begin
          add (Log_divergence
                 { step = idx; pc; addr; device_value; replay_value = value });
          diverged := true
        end
        else log_value value item_sites
      end
    done
  in
  (* out-of-bounds object accesses, from compiler annotations *)
  let scan_bounds pc ~write array lo hi =
    for i = 0 to tr.Memory.tr_len - 1 do
      let a = Array.unsafe_get tr.Memory.tr_buf i in
      let addr = addr_of a in
      if write then begin
        if kind a = 2 && (not (in_or addr)) && (addr < lo || addr > hi) then add (Oob_access { pc; kind = `Write; array; ea = addr; lo; hi })
      end
      else if kind a = 1 && (addr < lo || addr > hi) then
        add (Oob_access { pc; kind = `Read; array; ea = addr; lo; hi })
    done
  in
  let rec check_bounds pc l =
    match l with
    | [] -> ()
    | Store_bounds { array; lo; hi } :: rest ->
      scan_bounds pc ~write:true array lo hi;
      check_bounds pc rest
    | Load_bounds { array; lo; hi } :: rest ->
      scan_bounds pc ~write:false array lo hi;
      check_bounds pc rest
    | (Log_cf | Log_input) :: rest -> check_bounds pc rest
  in
  (* the detectors, over the step at index [idx] that just retired *)
  let observe idx =
    let pc = raw.Cpu.raw_pc_before in
    let item_sites = sites_at sites sites_lo pc in
    if keep_trace then
      steps :=
        { s_index = idx; s_pc = pc;
          s_instr =
            (if raw.Cpu.raw_executed then Some (Cpu.raw_instr cpu) else None);
          s_pc_after = raw.Cpu.raw_pc_after;
          s_accesses = Memory.step_trace mem }
        :: !steps;
    if tr.Memory.tr_len > 0 then check_log_writes idx pc item_sites;
    (* shadow call stack — only a retired instruction can push or pop;
       IRQ vectoring and a decode fault execute no instruction at all *)
    (match raw.Cpu.raw_control with
     | Isa.Plain -> ()
     | Isa.Call ->
       shadow := (pc + Isa.instr_size_bytes (Cpu.raw_instr cpu)) :: !shadow
     | Isa.Ret ->
       let actual = raw.Cpu.raw_pc_after in
       (match !shadow with
        | expected :: rest ->
          shadow := rest;
          if actual <> expected then
            add (Shadow_stack_violation
                   { pc; expected = Some expected; actual })
        | [] ->
          (* return with no matching call: a return-into-the-operation
             forged frame — there is no legitimate way to pop past the
             caller's own call *)
          add (Shadow_stack_violation { pc; expected = None; actual })));
    match item_sites with [] -> () | l -> check_bounds pc l
  in
  (* [raw_halted] is false before the first step and, after each step, says
     whether it latched a halt — so [Cpu.halted] is only consulted then.
     The halt is looked at before the budget, as [Cpu.run] does on the
     device: a run that halts on its last allowed step is complete. *)
  let rec run () =
    if !diverged then Some "replay diverged from the received log"
    else
      match if raw.Cpu.raw_halted then Cpu.halted cpu else None with
      | Some (Cpu.Self_jump a) when a = p.plan_caller_ret -> None
      | Some (Cpu.Self_jump a) ->
        Some (Printf.sprintf "replay halted in an abort loop at 0x%04x" a)
      | Some (Cpu.Bad_opcode (a, w)) ->
        Some (Printf.sprintf "replay hit invalid opcode 0x%04x at 0x%04x" w a)
      | None ->
        let n = Cpu.steps cpu in
        if n >= p.plan_max_steps then Some "replay exceeded its step budget"
        else begin
          if fused then begin
            Cpu.run_unobserved cpu ~budget:p.plan_max_steps;
            observe (Cpu.steps cpu - 1)
          end
          else begin
            Cpu.step_raw cpu;
            observe n
          end;
          run ()
        end
  in
  let replay_error = run () in
  (match replay_error with
   | Some msg when not !diverged -> add (Replay_failed msg)
   | _ -> ());
  let trace =
    { steps = List.rev !steps;
      step_count = Cpu.steps cpu;
      cf_dests = List.rev !cf_dests;
      inputs = List.rev !inputs;
      final_r4 = Cpu.get_reg cpu 4;
      replay_memory = mem }
  in
  (* policies (only meaningful over a complete replay) *)
  if replay_error = None then
    List.iter
      (fun pol ->
         match pol.check trace with
         | Ok () -> ()
         | Error reason ->
           add (Policy_violation { policy = pol.policy_name; reason }))
      p.plan_policies;
  let findings = List.rev !findings in
  { accepted = findings = [] && replay_error = None;
    findings;
    trace = Some trace }

(* Stages 0–2: everything that depends on per-session material (the
   challenge-bound token) or on plan-level gates, and nothing that
   depends on replaying the log. A memoizing caller runs this on every
   report — hit or miss — so a stale or forged token can never ride a
   cached verdict. *)
let precheck p report =
  let built = p.plan_built in
  let layout = built.Pipeline.layout in
  (* 0. static audit: a binary the auditor rejects carries broken or
     hostile instrumentation, so no report over it can attest anything *)
  match p.plan_audit with
  | Some r when not (S.Report.ok r) ->
    Error (Bad_instrumentation (S.Report.summary r))
  | _ ->
    (* 1. layout consistency *)
    let open A.Layout in
    if report.A.Pox.er_min <> layout.er_min
       || report.A.Pox.er_max <> layout.er_max
       || report.A.Pox.er_exit <> layout.er_exit
       || report.A.Pox.or_min <> layout.or_min
       || report.A.Pox.or_max <> layout.or_max
    then Error (Wrong_layout "report ranges differ from the provisioned layout")
    else
      (* 2. token + EXEC *)
      match
        A.Pox.verify_with ~key_state:p.plan_key_state
          ~expected_er:built.Pipeline.expected_er report
      with
      | Error msg -> Error (Bad_token msg)
      | Ok () -> Ok ()

(* Stages 3–4: the replay and the policies over it — a pure function of
   (plan, layout words, or_data), i.e. of (plan, {!log_digest}). This is
   the memoizable half; see [Dialed_fleet.Memo]. *)
let replay_outcome ?keep_trace ?scratch p report =
  (* a report whose OR bytes cannot even back the log view (e.g. short
     or_data with a forged token) is a malformed report, not a crash *)
  try replay ?keep_trace ?scratch p report
  with Invalid_argument msg ->
    { accepted = false;
      findings = [ Replay_failed (Printf.sprintf "malformed report: %s" msg) ];
      trace = None }

let verify_plan ?keep_trace ?scratch p report =
  match precheck p report with
  | Error f -> { accepted = false; findings = [ f ]; trace = None }
  | Ok () -> replay_outcome ?keep_trace ?scratch p report

let verify t report = verify_plan t.t_plan report

let pp_outcome ppf o =
  if o.accepted then Format.fprintf ppf "ACCEPTED"
  else
    Format.fprintf ppf "REJECTED:@,%a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut
         (fun ppf f -> Format.fprintf ppf "  - %a" pp_finding f))
      o.findings
