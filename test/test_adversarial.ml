(* Adversarial corpus against the DIALED verifier: randomized and
   deterministic tampering of otherwise-valid reports.

   Two attacker models are exercised:
   - a network attacker who mutates report bytes but cannot re-MAC:
     every mutation must die at the token check;
   - a stronger (hypothetical) attacker who knows the device key and can
     forge a consistent token over a doctored log: the replay layer must
     still reject via log divergence, malformed-log handling or the
     shadow call stack. *)

module M = Dialed_msp430
module A = Dialed_apex
module C = Dialed_core
module Apps = Dialed_apps.Apps
module Asm_parse = M.Asm_parse

let check_bool = Alcotest.(check bool)

(* ---------------------------------------------------------------- *)
(* A benign fire-sensor run attested once and shared by every case.   *)

let benign =
  lazy
    (let run = Apps.run Apps.fire_sensor in
     let report = A.Device.attest run.Apps.device ~challenge:"adv-corpus" in
     let final_r4 = M.Cpu.get_reg (A.Device.cpu run.Apps.device) 4 in
     let used_entries =
       (run.Apps.built.C.Pipeline.layout.A.Layout.or_max - final_r4) / 2
     in
     (run.Apps.built, report, used_entries))

let plan_for built = C.Verifier.plan built

let verify report =
  let built, _, _ = Lazy.force benign in
  C.Verifier.verify_plan (plan_for built) report

let kinds outcome =
  List.map C.Verifier.finding_kind outcome.C.Verifier.findings

let entry_word (report : A.Pox.report) k =
  let off = Forge.entry_offset report k in
  Char.code report.A.Pox.or_data.[off]
  lor (Char.code report.A.Pox.or_data.[off + 1] lsl 8)

let with_or_data (report : A.Pox.report) or_data =
  { report with A.Pox.or_data = Bytes.to_string or_data }

(* ---------------------------------------------------------------- *)
(* Network attacker (no key): every byte-level mutation is caught by
   the HMAC token check and nothing downstream ever runs or crashes.   *)

let prop_bit_flip =
  let _, report, _ = Lazy.force benign in
  let len = String.length report.A.Pox.or_data in
  QCheck.Test.make ~name:"any OR bit flip without the key is rejected"
    ~count:200
    QCheck.(pair (int_bound (len - 1)) (int_bound 7))
    (fun (byte, bit) ->
       let or_data = Bytes.of_string report.A.Pox.or_data in
       Bytes.set or_data byte
         (Char.chr (Char.code (Bytes.get or_data byte) lxor (1 lsl bit)));
       let outcome = verify (with_or_data report or_data) in
       (not outcome.C.Verifier.accepted) && kinds outcome = [ "bad-token" ])

let prop_truncation =
  let _, report, _ = Lazy.force benign in
  let len = String.length report.A.Pox.or_data in
  QCheck.Test.make ~name:"any OR truncation without the key is rejected"
    ~count:100
    QCheck.(int_bound (len - 1))
    (fun keep ->
       let truncated =
         { report with
           A.Pox.or_data = String.sub report.A.Pox.or_data 0 keep }
       in
       let outcome = verify truncated in
       (not outcome.C.Verifier.accepted) && kinds outcome = [ "bad-token" ])

let prop_entry_swap =
  let _, report, used = Lazy.force benign in
  QCheck.Test.make ~name:"swapping two log entries without the key is rejected"
    ~count:100
    QCheck.(pair (int_bound (used - 1)) (int_bound (used - 1)))
    (fun (i, j) ->
       let wi = entry_word report i and wj = entry_word report j in
       if wi = wj then true   (* an equal-word swap is not a mutation *)
       else begin
         let or_data = Bytes.of_string report.A.Pox.or_data in
         Forge.set_entry_word or_data (Forge.entry_offset report i) wj;
         Forge.set_entry_word or_data (Forge.entry_offset report j) wi;
         let outcome = verify (with_or_data report or_data) in
         (not outcome.C.Verifier.accepted) && kinds outcome = [ "bad-token" ]
       end)

(* ---------------------------------------------------------------- *)
(* Key-holding attacker: the token verifies, so rejection must come
   from the replay layer.                                             *)

(* Flip the top bit of every attestable log entry in turn and re-MAC.
   Entry 0 is the F3-saved stack pointer and entries >= 9 are runtime
   CF-Log/I-Log entries: the replayed execution must contradict each.
   (Entries 1-8 are the argument snapshot the replay itself boots from,
   so a flip there changes the claimed execution rather than forging
   one — covered by [test_wrong_args_claim_rejected] in the e2e suite.) *)
let test_forged_mac_entry_flips () =
  let built, report, used = Lazy.force benign in
  check_bool "log has runtime entries beyond the F3 prologue" true (used > 9);
  let entries = 0 :: List.init (used - 9) (fun i -> 9 + i) in
  List.iter
    (fun k ->
       let or_data = Bytes.of_string report.A.Pox.or_data in
       let off = Forge.entry_offset report k in
       Forge.set_entry_word or_data off (entry_word report k lxor 0x8000);
       let forged = Forge.token built (with_or_data report or_data) in
       let outcome = verify forged in
       if outcome.C.Verifier.accepted then
         Alcotest.failf "forged-MAC flip of entry %d accepted" k;
       let ks = kinds outcome in
       if
         not
           (List.exists
              (fun s -> s = "log-divergence" || s = "replay-failed")
              ks)
       then
         Alcotest.failf
           "forged-MAC flip of entry %d: expected replay-level rejection, \
            got: %a"
           k C.Verifier.pp_outcome outcome)
    entries

(* A short log with a valid token must be treated as a malformed report,
   not crash the verifier (exercises the Invalid_argument containment). *)
let test_forged_mac_truncation_is_malformed () =
  let built, report, _ = Lazy.force benign in
  List.iter
    (fun keep ->
       let truncated =
         { report with
           A.Pox.or_data = String.sub report.A.Pox.or_data 0 keep }
       in
       let forged = Forge.token built truncated in
       let outcome = verify forged in
       check_bool
         (Printf.sprintf "truncated-to-%d rejected" keep)
         true (not outcome.C.Verifier.accepted);
       check_bool
         (Printf.sprintf "truncated-to-%d flagged as replay failure" keep)
         true
         (List.exists
            (fun f ->
               match f with
               | C.Verifier.Replay_failed msg ->
                 String.length msg >= 9
                 && String.sub msg 0 9 = "malformed"
               | _ -> false)
            outcome.C.Verifier.findings))
    [ 0; 1; 17; String.length report.A.Pox.or_data - 2 ]

(* ---------------------------------------------------------------- *)
(* Shadow-stack regression: an operation that returns through a forged
   frame pushed at runtime. The device completes legally (EXEC = 1, the
   token verifies), and the final instrumented ret fires with an EMPTY
   shadow stack — which used to be silently ignored.                   *)

let forged_return_op = {|
    entry:
        push #mid
        ret                       ; returns into the forged frame
    mid:
        br #__op_exit
    |}

let test_empty_shadow_stack_reported () =
  let built = C.Pipeline.build ~op:(Asm_parse.parse forged_return_op) () in
  let device = C.Pipeline.device built in
  let result = A.Device.run_operation device in
  check_bool "device run completes" true result.A.Device.completed;
  check_bool "exec = 1 (invisible to APEX)" true
    (A.Monitor.exec_flag (A.Device.monitor device));
  let report = A.Device.attest device ~challenge:"forged-frame" in
  let outcome = C.Verifier.verify_plan (C.Verifier.plan built) report in
  check_bool "verifier rejects" true (not outcome.C.Verifier.accepted);
  check_bool "ret on an empty shadow stack is reported" true
    (List.exists
       (fun f ->
          match f with
          | C.Verifier.Shadow_stack_violation { expected = None; _ } -> true
          | _ -> false)
       outcome.C.Verifier.findings)

(* ---------------------------------------------------------------- *)
(* Mutation corpus against the static auditor: take a correctly
   instrumented binary, apply one targeted byte-level mutation an
   attacker with flash access could, and check the auditor flags it
   with the right error class. These mutations never reach the replay —
   the audit is exactly the stage that catches binaries whose
   instrumentation itself was doctored.                                *)

module S = Dialed_staticcheck
module Isa = M.Isa

let mem_of built =
  let m = M.Memory.create () in
  M.Assemble.load built.C.Pipeline.image m;
  m

let audit_mem built mem =
  let l = built.C.Pipeline.layout in
  S.Audit.audit ~mem ~er_min:l.A.Layout.er_min ~er_max:l.A.Layout.er_max
    ~or_min:l.A.Layout.or_min ~or_max:l.A.Layout.or_max ()

let stream_of built mem =
  let l = built.C.Pipeline.layout in
  S.Stream.of_memory mem ~lo:l.A.Layout.er_min ~hi:l.A.Layout.er_max

let find_entry stream p =
  let n = S.Stream.length stream in
  let rec go i =
    if i >= n then Alcotest.fail "mutation target not found in the binary"
    else
      let e = S.Stream.get stream i in
      if p i e then (i, e) else go (i + 1)
  in
  go 0

let rfind_entry stream p =
  let rec go i =
    if i < 0 then Alcotest.fail "mutation target not found in the binary"
    else
      let e = S.Stream.get stream i in
      if p i e then (i, e) else go (i - 1)
  in
  go (S.Stream.length stream - 1)

let op_ret = "op:\n    mov #7, r10\n    ret\n"
let op_store = "op:\n    mov #0x0300, r10\n    mov #1, 2(r10)\n    ret\n"
let op_jmp = "op:\n    mov #1, r5\n    jmp done\ndone:\n    ret\n"

(* each mutant: (name, operation, patch, expected finding kind) *)
let mutants =
  [ ("stripped CF append", op_ret,
     (fun built mem ->
        (* retarget the ret append's head store from 0(r4) to 0(r5) *)
        let _, e =
          find_entry (stream_of built mem) (fun _ e ->
              match e.S.Stream.ins with
              | Isa.Two (Isa.MOV, _, Isa.Sindirect 1, Isa.Dindexed (0, 4)) ->
                true
              | _ -> false)
        in
        let w = M.Memory.peek16 mem e.S.Stream.addr in
        M.Memory.poke16 mem e.S.Stream.addr ((w land 0xFFF0) lor 5)),
     "unlogged-cf");
    ("r4 clobber in app code", op_ret,
     (fun built mem ->
        (* mov #7, r10  ->  mov #7, r4 *)
        let _, e =
          find_entry (stream_of built mem) (fun _ e ->
              e.S.Stream.ins
              = Isa.Two (Isa.MOV, Isa.Word, Isa.Simm 7, Isa.Dreg 10))
        in
        let w = M.Memory.peek16 mem e.S.Stream.addr in
        M.Memory.poke16 mem e.S.Stream.addr ((w land 0xFFF0) lor 4)),
     "r4-clobber");
    ("widened store bound check", op_store,
     (fun built mem ->
        (* the F5 check's cmp #(or_max+2), s gets a wider immediate *)
        let bound = built.C.Pipeline.layout.A.Layout.or_max + 2 in
        let _, e =
          find_entry (stream_of built mem) (fun _ e ->
              match e.S.Stream.ins with
              | Isa.Two (Isa.CMP, Isa.Word, Isa.Simm m, Isa.Dreg _) ->
                m = bound land 0xFFFF
              | _ -> false)
        in
        M.Memory.poke16 mem (e.S.Stream.addr + 2) ((bound + 0x10) land 0xFFFF)),
     "unchecked-store");
    ("widened entry check", op_ret,
     (fun built mem ->
        (* cmp #OR_MAX, r4 at the entry point compares a looser bound *)
        let l = built.C.Pipeline.layout in
        let w = M.Memory.peek16 mem (l.A.Layout.er_min + 2) in
        M.Memory.poke16 mem (l.A.Layout.er_min + 2) (w + 2)),
     "entry-check");
    ("widened append floor check", op_ret,
     (fun built mem ->
        (* the last append's cmp #OR_MIN, r4 floor is lowered *)
        let or_min = built.C.Pipeline.layout.A.Layout.or_min in
        let _, e =
          rfind_entry (stream_of built mem) (fun _ e ->
              e.S.Stream.ins
              = Isa.Two (Isa.CMP, Isa.Word, Isa.Simm or_min, Isa.Dreg 4))
        in
        M.Memory.poke16 mem (e.S.Stream.addr + 2) (or_min - 2)),
     "malformed-append");
    ("retargeted abort loop", op_ret,
     (fun built mem ->
        (* the abort self-jump now falls through instead of looping *)
        let _, e =
          find_entry (stream_of built mem) (fun _ e ->
              e.S.Stream.ins = Isa.Jump (Isa.JMP, -1))
        in
        M.Memory.poke16 mem e.S.Stream.addr 0x3C00),
     "abort-loop");
    ("retargeted CF log operand", op_jmp,
     (fun built mem ->
        (* the jmp's append logs a destination 2 bytes off *)
        let stream = stream_of built mem in
        let i, _ =
          find_entry stream (fun _ e ->
              match e.S.Stream.ins with
              | Isa.Jump (Isa.JMP, off) -> off <> -1
              | _ -> false)
        in
        let head = S.Stream.get stream (i - 5) in
        let v = M.Memory.peek16 mem (head.S.Stream.addr + 2) in
        M.Memory.poke16 mem (head.S.Stream.addr + 2) (v + 2)),
     "wrong-log-operand") ]

let test_mutation_corpus () =
  List.iter
    (fun (name, op, patch, expected) ->
       let built = C.Pipeline.build ~op:(Asm_parse.parse op) () in
       let clean = audit_mem built (mem_of built) in
       check_bool (name ^ ": baseline audits clean") true (S.Report.ok clean);
       let mem = mem_of built in
       patch built mem;
       let r = audit_mem built mem in
       check_bool (name ^ ": mutant rejected") false (S.Report.ok r);
       let ks = List.map S.Report.finding_kind r.S.Report.findings in
       if not (List.mem expected ks) then
         Alcotest.failf "%s: expected class %s, report was:@.%a" name expected
           S.Report.pp r)
    mutants

(* ---------------------------------------------------------------- *)
(* Dataflow mutation corpus: mutations that keep every instrumentation
   sequence syntactically recognizable — or that remove instrumentation
   the pattern scan does not own under the selective discipline — so
   only the semantic taint pass can catch them. Each mutant is audited
   three ways: the unpatched build must be clean, the patched build
   must STILL be clean with the dataflow pass switched off (proving the
   syntactic checks alone cannot see the mutation), and the full audit
   must reject it with the expected class.                             *)

let audit_mem_cfg config built mem =
  let l = built.C.Pipeline.layout in
  S.Audit.audit ~config ~mem ~er_min:l.A.Layout.er_min
    ~er_max:l.A.Layout.er_max ~or_min:l.A.Layout.or_min
    ~or_max:l.A.Layout.or_max ()

(* the configuration the verifier would audit this build against *)
let audit_config ?(dataflow = true) built =
  let selective =
    if built.C.Pipeline.selective then
      Some built.C.Pipeline.critical_ranges
    else None
  in
  { S.Audit.default_config with S.Audit.selective; dataflow }

let selective_build ?data ?(critical = []) op_src =
  let dfa_config =
    { C.Dfa.default_config with
      C.Dfa.selective = Some { C.Dfa.critical = List.map fst critical } }
  in
  C.Pipeline.build ~dfa_config
    ?data:(Option.map Asm_parse.parse data)
    ~critical ~op:(Asm_parse.parse op_src) ()

let full_build ?data op_src =
  C.Pipeline.build
    ?data:(Option.map Asm_parse.parse data)
    ~op:(Asm_parse.parse op_src) ()

let nop_word = 0x4303 (* mov r3, r3 *)

(* overwrite stream entries [i, i + count) with NOPs, word by word *)
let nop_entries mem stream i count =
  let lo = (S.Stream.get stream i).S.Stream.addr in
  let hi = (S.Stream.get stream (i + count)).S.Stream.addr in
  let a = ref lo in
  while !a < hi do
    M.Memory.poke16 mem !a nop_word;
    a := !a + 2
  done

(* NOP the whole I-Log append that follows the matching instruction *)
let nop_append_after pred built mem =
  let stream = stream_of built mem in
  let i, _ = find_entry stream (fun _ e -> pred built e.S.Stream.ins) in
  nop_entries mem stream (i + 1) S.Pattern.append_len

(* retarget the logged source register of the append following the
   matching instruction: mov rSRC, 0(r4) -> mov rNEW, 0(r4) *)
let retarget_append_src pred ~new_reg built mem =
  let stream = stream_of built mem in
  let i, _ = find_entry stream (fun _ e -> pred built e.S.Stream.ins) in
  let head = S.Stream.get stream (i + 1) in
  (match head.S.Stream.ins with
   | Isa.Two (Isa.MOV, _, Isa.Sreg _, Isa.Dindexed (0, 4)) -> ()
   | ins ->
     Alcotest.failf "expected a register-logging append head, found %a"
       Isa.pp ins);
  let w = M.Memory.peek16 mem head.S.Stream.addr in
  M.Memory.poke16 mem head.S.Stream.addr
    ((w land 0xF0FF) lor (new_reg lsl 8))

let is_mmio_read _ ins =
  ins = Isa.Two (Isa.MOV, Isa.Word, Isa.Sabsolute 0x0140, Isa.Dreg 15)

let is_crit_read built ins =
  let crit = M.Assemble.symbol built.C.Pipeline.image "crit" in
  ins = Isa.Two (Isa.MOV, Isa.Word, Isa.Sabsolute crit, Isa.Dreg 15)

(* each: (name, build, patch, expected kind, extra check on the report) *)
let df_mutants =
  [ ("selective: MMIO append removed",
     (fun () ->
        selective_build
          "op:\n    mov &0x0140, r15\n    mov r15, r10\n    ret\n"),
     nop_append_after is_mmio_read,
     "critical-not-covered",
     (fun _ -> true));
    ("full: append logs the wrong register",
     (fun () ->
        full_build
          "op:\n    mov &0x0140, r15\n    mov r15, &0x0078\n    ret\n"),
     retarget_append_src is_mmio_read ~new_reg:14,
     "untracked-flow-or",
     (fun _ -> true));
    ("selective: critical-global append removed",
     (fun () ->
        selective_build ~data:"crit:\n    .word 42\n"
          ~critical:[ ("crit", 2) ]
          "op:\n    mov &crit, r15\n    mov r15, r10\n    ret\n"),
     nop_append_after is_crit_read,
     "critical-not-covered",
     (fun _ -> true));
    ("selective: read guard widened into the OR",
     (fun () ->
        selective_build ~data:"arr:\n    .space 8\n"
          "op:\n\
          \    mov #2, r14\n\
          \    .annot load arr arr 8\n\
          \    mov arr(r14), r15\n\
          \    ret\n"),
     (fun built mem ->
        (* the guard's upper cmp #(arr+8) immediate is widened so the
           proven EA range reaches into the OR; the pattern recognizer
           still accepts the guard, only the taint pass re-checks the
           range *)
        let hi = M.Assemble.symbol built.C.Pipeline.image "arr" + 8 in
        let _, e =
          find_entry (stream_of built mem) (fun _ e ->
              match e.S.Stream.ins with
              | Isa.Two (Isa.CMP, Isa.Word, Isa.Simm m, Isa.Dreg _) ->
                m = hi
              | _ -> false)
        in
        M.Memory.poke16 mem (e.S.Stream.addr + 2)
          (built.C.Pipeline.layout.A.Layout.or_min + 0x80)),
     "overtainted-indirect",
     (fun _ -> true));
    ("full: taint laundered through a frame slot",
     (fun () ->
        full_build
          "op:\n\
          \    sub #6, r1\n\
          \    mov r1, r6\n\
          \    mov &0x0140, r15\n\
          \    mov r15, 2(r6)\n\
          \    mov 2(r6), r14\n\
          \    mov r14, &0x0078\n\
          \    add #6, r1\n\
          \    ret\n"),
     retarget_append_src is_mmio_read ~new_reg:13,
     "untracked-flow-or",
     (* the witness path must walk through the spill/reload laundering *)
     (fun r ->
        List.exists
          (fun f ->
             match f with
             | S.Report.Untracked_flow_to_or { trace; _ } -> trace <> []
             | _ -> false)
          r.S.Report.findings)) ]

let test_dataflow_mutation_corpus () =
  List.iter
    (fun (name, mk, patch, expected, extra) ->
       let built = mk () in
       let clean = audit_mem_cfg (audit_config built) built (mem_of built) in
       if not (S.Report.ok clean) then
         Alcotest.failf "%s: baseline not clean:@.%a" name S.Report.pp clean;
       let mem = mem_of built in
       patch built mem;
       let syntactic =
         audit_mem_cfg (audit_config ~dataflow:false built) built mem
       in
       if not (S.Report.ok syntactic) then
         Alcotest.failf
           "%s: the pattern scan alone already sees the mutation \
            (it must be dataflow-only):@.%a"
           name S.Report.pp syntactic;
       let r = audit_mem_cfg (audit_config built) built mem in
       check_bool (name ^ ": mutant rejected") false (S.Report.ok r);
       let ks = List.map S.Report.finding_kind r.S.Report.findings in
       if not (List.mem expected ks) then
         Alcotest.failf "%s: expected class %s, report was:@.%a" name
           expected S.Report.pp r;
       check_bool (name ^ ": witness check") true (extra r))
    df_mutants

(* The gating stage: a plan built with ~audit over a doctored image
   rejects every report up front with bad-instrumentation — before the
   token is even looked at. *)
let test_audit_gates_verification () =
  let built, report, _ = Lazy.force benign in
  let patched_segments =
    List.map
      (fun (base, data) ->
         let l = built.C.Pipeline.layout in
         if base > l.A.Layout.er_max || base + String.length data <= l.A.Layout.er_min
         then (base, data)
         else begin
           (* find a `mov @sp, 0(r4)` append head and retarget it to r5 *)
           let mem = mem_of built in
           let _, e =
             find_entry (stream_of built mem) (fun _ e ->
                 match e.S.Stream.ins with
                 | Isa.Two (Isa.MOV, _, Isa.Sindirect 1, Isa.Dindexed (0, 4)) ->
                   true
                 | _ -> false)
           in
           let off = e.S.Stream.addr - base in
           let b = Bytes.of_string data in
           Bytes.set b off
             (Char.chr ((Char.code (Bytes.get b off) land 0xF0) lor 5));
           (base, Bytes.to_string b)
         end)
      built.C.Pipeline.image.M.Assemble.segments
  in
  let doctored =
    { built with
      C.Pipeline.image =
        { built.C.Pipeline.image with M.Assemble.segments = patched_segments } }
  in
  let plan = C.Verifier.plan ~audit:S.Audit.default_config doctored in
  let outcome = C.Verifier.verify_plan plan report in
  check_bool "doctored binary rejected" true (not outcome.C.Verifier.accepted);
  Alcotest.(check (list string)) "rejected by the audit, pre-token"
    [ "bad-instrumentation" ] (kinds outcome);
  (* the same report against the genuine binary still verifies *)
  let genuine = C.Verifier.plan ~audit:S.Audit.default_config built in
  check_bool "genuine binary still accepted" true
    (C.Verifier.verify_plan genuine report).C.Verifier.accepted

(* A selective build needs no explicit ~audit: the reduced discipline
   makes the audit (including the dataflow pass) a hard precondition,
   so the plan runs it unconditionally and a doctored selective image
   is rejected before any replay — the same report verifies against
   the genuine image. *)
let test_selective_plan_always_gates () =
  let run = Apps.run ~selective:true Apps.fire_sensor in
  let built = run.Apps.built in
  let report = A.Device.attest run.Apps.device ~challenge:"sel-gate" in
  let genuine = C.Verifier.plan built in
  check_bool "benign selective run verifies" true
    (C.Verifier.verify_plan genuine report).C.Verifier.accepted;
  (* NOP one MMIO append out of the image, rebuilding the segments from
     patched memory; the pattern scan cannot see it (selective cedes
     static-read coverage to the dataflow pass) *)
  let mem = mem_of built in
  let stream = stream_of built mem in
  let i, _ =
    find_entry stream (fun _ e ->
        match e.S.Stream.ins with
        | Isa.Two (Isa.MOV, Isa.Word, Isa.Sabsolute a, Isa.Dreg _) ->
          a < 0x0200
        | _ -> false)
  in
  nop_entries mem stream (i + 1) S.Pattern.append_len;
  let patched_segments =
    List.map
      (fun (base, data) ->
         ( base,
           String.init (String.length data) (fun k ->
               Char.chr (M.Memory.peek8 mem (base + k))) ))
      built.C.Pipeline.image.M.Assemble.segments
  in
  let doctored =
    { built with
      C.Pipeline.image =
        { built.C.Pipeline.image with
          M.Assemble.segments = patched_segments } }
  in
  let outcome = C.Verifier.verify_plan (C.Verifier.plan doctored) report in
  check_bool "doctored selective binary rejected" true
    (not outcome.C.Verifier.accepted);
  Alcotest.(check (list string)) "rejected by the forced audit, pre-token"
    [ "bad-instrumentation" ] (kinds outcome)

(* ---------------------------------------------------------------- *)
(* Scratch-arena equivalence: replaying through one reused
   Verifier.scratch (the fleet engine's per-domain arena) must be
   observationally identical to the fresh-sandbox path, for benign and
   tampered reports alike. A single arena is deliberately shared across
   the whole random sequence, so residue from any earlier replay —
   dirty RAM pages, CPU registers, shadow-stack state, trace cursor —
   would surface as a divergence in a later case if reset were
   incomplete.                                                        *)

let prop_scratch_equivalence =
  let built, report, used = Lazy.force benign in
  let plan = plan_for built in
  let scratch = C.Verifier.scratch () in
  let len = String.length report.A.Pox.or_data in
  let mutate (which, a, b) =
    match which with
    | 0 -> report                              (* benign, accepted *)
    | 1 ->
      (* network attacker: one bit flip, token no longer verifies *)
      let or_data = Bytes.of_string report.A.Pox.or_data in
      let byte = a mod len and bit = b mod 8 in
      Bytes.set or_data byte
        (Char.chr (Char.code (Bytes.get or_data byte) lxor (1 lsl bit)));
      with_or_data report or_data
    | 2 ->
      (* key-holder: truncated log under a valid token (malformed path) *)
      Forge.token built
        { report with
          A.Pox.or_data = String.sub report.A.Pox.or_data 0 (a mod len) }
    | _ ->
      (* key-holder: one log entry flipped and re-MACed (replay path) *)
      let k = a mod used in
      let or_data = Bytes.of_string report.A.Pox.or_data in
      Forge.set_entry_word or_data (Forge.entry_offset report k)
        (entry_word report k lxor 0x8000);
      Forge.token built (with_or_data report or_data)
  in
  QCheck.Test.make
    ~name:"scratch-arena replay is bit-identical to fresh replay"
    ~count:120
    QCheck.(triple (int_bound 3) (int_bound 20_000) (int_bound 20_000))
    (fun case ->
       let r = mutate case in
       let fresh = C.Verifier.verify_plan plan r in
       let reused = C.Verifier.verify_plan ~scratch plan r in
       fresh.C.Verifier.accepted = reused.C.Verifier.accepted
       && fresh.C.Verifier.findings = reused.C.Verifier.findings
       && (match (fresh.C.Verifier.trace, reused.C.Verifier.trace) with
           | Some a, Some b ->
             a.C.Verifier.step_count = b.C.Verifier.step_count
             && a.C.Verifier.cf_dests = b.C.Verifier.cf_dests
             && a.C.Verifier.inputs = b.C.Verifier.inputs
           | None, None -> true
           | _ -> false))

let suites =
  [ ("adversarial",
     [ QCheck_alcotest.to_alcotest prop_bit_flip;
       QCheck_alcotest.to_alcotest prop_truncation;
       QCheck_alcotest.to_alcotest prop_entry_swap;
       QCheck_alcotest.to_alcotest prop_scratch_equivalence;
       Alcotest.test_case "forged-MAC entry flips" `Quick
         test_forged_mac_entry_flips;
       Alcotest.test_case "forged-MAC truncation is malformed" `Quick
         test_forged_mac_truncation_is_malformed;
       Alcotest.test_case "empty shadow stack reported" `Quick
         test_empty_shadow_stack_reported;
       Alcotest.test_case "auditor mutation corpus" `Quick
         test_mutation_corpus;
       Alcotest.test_case "dataflow mutation corpus" `Quick
         test_dataflow_mutation_corpus;
       Alcotest.test_case "audit gates verification" `Quick
         test_audit_gates_verification;
       Alcotest.test_case "selective plan always gates" `Quick
         test_selective_plan_always_gates ]) ]
