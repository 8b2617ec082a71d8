(* Oplog views, pipeline contracts and verifier edge cases. *)

module M = Dialed_msp430
module A = Dialed_apex
module C = Dialed_core
module Asm_parse = M.Asm_parse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tiny_op = "op:\n    mov r15, r5\n    ret\n"

let build ?variant ?or_min ?data op =
  C.Pipeline.build ?variant ?or_min
    ?data:(Option.map Asm_parse.parse data)
    ~op:(Asm_parse.parse op) ()

(* ------------------------------------------------------------- *)
(* Oplog.                                                          *)

let run_tiny args =
  let built = build tiny_op in
  let device = C.Pipeline.device built in
  let result = A.Device.run_operation ~args device in
  check_bool "completed" true result.A.Device.completed;
  (built, device)

let test_oplog_args_roundtrip () =
  let _, device = run_tiny [ 0x1111; 0x2222; 0x3333 ] in
  let oplog = C.Oplog.of_device device in
  check_int "arg 0 (r15)" 0x1111 (C.Oplog.arg_value oplog 0);
  check_int "arg 1 (r14)" 0x2222 (C.Oplog.arg_value oplog 1);
  check_int "arg 2 (r13)" 0x3333 (C.Oplog.arg_value oplog 2);
  Alcotest.(check (list int)) "args list is r8..r15"
    [ 0; 0; 0; 0; 0; 0x3333; 0x2222; 0x1111 ]
    (C.Oplog.args oplog)

let test_oplog_saved_sp () =
  let built, device = run_tiny [ 1 ] in
  let oplog = C.Oplog.of_device device in
  (* the caller shim's call pushed one word below the stack top *)
  check_int "saved sp" (built.C.Pipeline.layout.A.Layout.stack_top - 2)
    (C.Oplog.saved_sp oplog)

let test_oplog_entries_down_to () =
  let _, device = run_tiny [ 7 ] in
  let oplog = C.Oplog.of_device device in
  let final_r4 = M.Cpu.get_reg (A.Device.cpu device) 4 in
  let entries = C.Oplog.entries_down_to oplog ~final_r4 in
  check_bool "at least F3 + final ret" true (List.length entries >= 10);
  check_int "used_bytes consistent" (2 * List.length entries)
    (C.Oplog.used_bytes oplog ~final_r4);
  (* entry 8 is r15 = first argument *)
  check_int "arg in entry stream" 7 (List.nth entries 8)

let test_oplog_of_report_matches_device () =
  let _, device = run_tiny [ 9 ] in
  let report = A.Device.attest device ~challenge:"x" in
  let from_report = C.Oplog.of_report report in
  let from_device = C.Oplog.of_device device in
  check_int "same word" (C.Oplog.entry from_device 3) (C.Oplog.entry from_report 3);
  check_int "capacity" (C.Oplog.capacity_entries from_device)
    (C.Oplog.capacity_entries from_report)

(* Bounds hardening: final_r4 is an attacker-controlled report field and
   must never yield negative counts or out-of-window reads. *)

let attested_oplog () =
  let _, device = run_tiny [ 7 ] in
  let report = A.Device.attest device ~challenge:"x" in
  (C.Oplog.of_report report, report)

let test_oplog_word_at_bounds () =
  let oplog, _ = attested_oplog () in
  let lo = C.Oplog.or_min oplog and hi = C.Oplog.or_max oplog in
  check_int "word at or_min" (C.Oplog.word_at oplog lo) (C.Oplog.word_at oplog lo);
  (match C.Oplog.word_at oplog (lo - 2) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "word_at below OR accepted");
  (match C.Oplog.word_at oplog (hi + 2) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "word_at above OR accepted")

let test_oplog_entry_bounds () =
  let oplog, _ = attested_oplog () in
  (match C.Oplog.entry oplog (-1) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative entry index accepted");
  (match C.Oplog.entry oplog (C.Oplog.capacity_entries oplog + 1) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "entry index past capacity accepted")

let test_oplog_used_bytes_clamped () =
  let oplog, _ = attested_oplog () in
  let lo = C.Oplog.or_min oplog and hi = C.Oplog.or_max oplog in
  (* final_r4 above the log base: an empty (or lying) log, never negative *)
  check_int "r4 above or_max" 0 (C.Oplog.used_bytes oplog ~final_r4:(hi + 8));
  check_int "r4 at or_max" 0 (C.Oplog.used_bytes oplog ~final_r4:hi);
  (* final_r4 below OR: at most the whole window *)
  check_int "r4 below or_min" (hi + 2 - lo)
    (C.Oplog.used_bytes oplog ~final_r4:(lo - 100));
  check_int "r4 wildly out of range" (hi + 2 - lo)
    (C.Oplog.used_bytes oplog ~final_r4:(-4))

let test_oplog_entries_down_to_clamped () =
  let oplog, _ = attested_oplog () in
  let lo = C.Oplog.or_min oplog and hi = C.Oplog.or_max oplog in
  Alcotest.(check (list int)) "r4 above or_max -> no entries" []
    (C.Oplog.entries_down_to oplog ~final_r4:(hi + 10));
  check_int "r4 below or_min -> capacity, no exception"
    (C.Oplog.capacity_entries oplog)
    (List.length (C.Oplog.entries_down_to oplog ~final_r4:(lo - 50)))

(* ------------------------------------------------------------- *)
(* Pipeline.                                                       *)

let test_pipeline_fingerprint_stable () =
  let a = build tiny_op and b = build tiny_op in
  Alcotest.(check string) "same build, same fingerprint"
    (C.Pipeline.fingerprint a) (C.Pipeline.fingerprint b);
  let c = build "op:\n    mov r15, r6\n    ret\n" in
  check_bool "different op, different fingerprint" true
    (C.Pipeline.fingerprint a <> C.Pipeline.fingerprint c)

let test_pipeline_rejects_no_ret () =
  match build "op:\n    mov r15, r5\n" with
  | exception C.Pipeline.Error _ -> ()
  | _ -> Alcotest.fail "operation without ret accepted"

let test_pipeline_provides_op_exit () =
  let built = build "op:\n    br #__op_exit\n" in
  check_bool "op exit symbol" true
    (M.Assemble.symbol_opt built.C.Pipeline.image C.Pipeline.op_exit_symbol
     <> None)

let test_pipeline_er_exit_is_last_ret () =
  let built = build tiny_op in
  let l = built.C.Pipeline.layout in
  (* the exit instruction must decode as ret *)
  let mem = M.Memory.create () in
  M.Assemble.load built.C.Pipeline.image mem;
  (match M.Disasm.instruction_at mem l.A.Layout.er_exit with
   | Some (i, _) -> check_bool "exit is ret" true (C.Pipeline.concrete_is_ret i)
   | None -> Alcotest.fail "er_exit not decodable")

let test_pipeline_rejects_or_collision () =
  (* data segment reaching into OR must be refused *)
  let big_data = "blob:\n    .space 600\n" in
  match build ~data:big_data tiny_op with
  | exception C.Pipeline.Error _ -> ()
  | _ -> Alcotest.fail "data/OR collision accepted"

let test_pipeline_rejects_caller_overrun () =
  (* 0xF800 - 0xE000 = 6 KiB of ER: 3100 two-byte instructions reach
     the caller stub, which would overwrite them in the image *)
  let body = String.concat "" (List.init 3100 (fun _ -> "    mov r15, r6\n")) in
  match build ~variant:C.Pipeline.Unmodified ("op:\n" ^ body ^ "    ret\n")
  with
  | exception C.Pipeline.Error _ -> ()
  | _ -> Alcotest.fail "operation overrunning the caller accepted"

let test_pipeline_rejects_static_store_to_or () =
  match build "op:\n    mov r15, &0x0480\n    ret\n" with
  | exception C.Pipeline.Error _ -> ()
  | _ -> Alcotest.fail "static store into OR accepted"

let test_pipeline_variants_share_layout_defaults () =
  let a = build ~variant:C.Pipeline.Unmodified tiny_op in
  let b = build ~variant:C.Pipeline.Full tiny_op in
  check_int "same or_min" a.C.Pipeline.layout.A.Layout.or_min
    b.C.Pipeline.layout.A.Layout.or_min;
  check_bool "instrumented ER is larger" true
    (C.Pipeline.code_size_bytes b > C.Pipeline.code_size_bytes a)

let test_pipeline_expected_er_matches_memory () =
  let built = build tiny_op in
  let device = C.Pipeline.device built in
  let l = built.C.Pipeline.layout in
  let actual =
    M.Memory.dump (A.Device.memory device) ~addr:l.A.Layout.er_min
      ~len:(l.A.Layout.er_max - l.A.Layout.er_min + 1)
  in
  check_bool "expected_er equals loaded ER" true
    (String.equal actual built.C.Pipeline.expected_er)

(* ------------------------------------------------------------- *)
(* Verifier edge cases.                                            *)

let test_verifier_requires_full_variant () =
  let built = build ~variant:C.Pipeline.Cfa_only tiny_op in
  match C.Verifier.create built with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "verifier accepted a CFA-only build"

let test_verifier_wrong_layout () =
  let built = build tiny_op in
  let device = C.Pipeline.device built in
  ignore (A.Device.run_operation ~args:[ 1 ] device);
  let report = A.Device.attest device ~challenge:"x" in
  let verifier = C.Verifier.create built in
  let doctored = { report with A.Pox.er_min = report.A.Pox.er_min + 2 } in
  let outcome = C.Verifier.verify verifier doctored in
  check_bool "layout mismatch rejected" true (not outcome.C.Verifier.accepted);
  (match outcome.C.Verifier.findings with
   | [ C.Verifier.Wrong_layout _ ] -> ()
   | _ -> Alcotest.fail "expected a layout finding")

let test_verifier_abort_loop_rejected () =
  (* a run that trips the instrumentation abort (r4 not initialised):
     call the operation directly rather than through the shim *)
  let built = build tiny_op in
  let device = C.Pipeline.device built in
  let cpu = A.Device.cpu device in
  M.Cpu.set_reg cpu M.Isa.pc
    (M.Assemble.symbol built.C.Pipeline.image C.Pipeline.op_start_symbol);
  M.Cpu.set_reg cpu M.Isa.sp 0x09FE;
  M.Cpu.set_reg cpu 4 0x1234; (* bogus log pointer *)
  let mon = A.Device.monitor device in
  let halted = M.Cpu.run cpu ~max_steps:1000 (A.Monitor.observe mon) in
  (match halted with
   | Some (M.Cpu.Self_jump a) ->
     check_int "halted in the abort loop" a
       (M.Assemble.symbol built.C.Pipeline.image
          Dialed_tinycfa.Instrument.abort_label)
   | _ -> Alcotest.fail "expected an abort halt");
  check_bool "exec stays low" false (A.Monitor.exec_flag mon);
  let report = A.Device.attest device ~challenge:"x" in
  let outcome = C.Verifier.verify (C.Verifier.create built) report in
  check_bool "rejected" true (not outcome.C.Verifier.accepted)

let test_log_overflow_aborts () =
  (* a loop whose CF logging exceeds OR capacity must hit the guard and
     abort rather than corrupt memory below OR *)
  let op = {|
    op:
        mov #400, r5
    loop:
        dec r5
        tst r5
        jnz loop
        ret
    |}
  in
  let built = build op in
  let device = C.Pipeline.device built in
  let result = A.Device.run_operation ~args:[] device in
  check_bool "did not complete normally" true (not result.A.Device.completed);
  check_bool "exec low" false (A.Monitor.exec_flag (A.Device.monitor device));
  (* nothing was written below OR_MIN *)
  let l = built.C.Pipeline.layout in
  check_int "word below OR untouched" 0
    (M.Memory.peek16 (A.Device.memory device) (l.A.Layout.or_min - 2))

let suites =
  [ ("oplog-pipeline",
     [ Alcotest.test_case "oplog args roundtrip" `Quick test_oplog_args_roundtrip;
       Alcotest.test_case "oplog saved sp" `Quick test_oplog_saved_sp;
       Alcotest.test_case "oplog entries" `Quick test_oplog_entries_down_to;
       Alcotest.test_case "oplog report = device" `Quick test_oplog_of_report_matches_device;
       Alcotest.test_case "oplog word_at bounds" `Quick test_oplog_word_at_bounds;
       Alcotest.test_case "oplog entry bounds" `Quick test_oplog_entry_bounds;
       Alcotest.test_case "oplog used_bytes clamped" `Quick test_oplog_used_bytes_clamped;
       Alcotest.test_case "oplog entries clamped" `Quick test_oplog_entries_down_to_clamped;
       Alcotest.test_case "pipeline: fingerprint" `Quick test_pipeline_fingerprint_stable;
       Alcotest.test_case "pipeline: no ret" `Quick test_pipeline_rejects_no_ret;
       Alcotest.test_case "pipeline: op exit" `Quick test_pipeline_provides_op_exit;
       Alcotest.test_case "pipeline: er_exit" `Quick test_pipeline_er_exit_is_last_ret;
       Alcotest.test_case "pipeline: OR collision" `Quick test_pipeline_rejects_or_collision;
       Alcotest.test_case "pipeline: store to OR" `Quick test_pipeline_rejects_static_store_to_or;
       Alcotest.test_case "pipeline: caller overrun" `Quick
         test_pipeline_rejects_caller_overrun;
       Alcotest.test_case "pipeline: variants" `Quick test_pipeline_variants_share_layout_defaults;
       Alcotest.test_case "pipeline: expected ER" `Quick test_pipeline_expected_er_matches_memory;
       Alcotest.test_case "verifier: needs Full" `Quick test_verifier_requires_full_variant;
       Alcotest.test_case "verifier: wrong layout" `Quick test_verifier_wrong_layout;
       Alcotest.test_case "verifier: abort loop" `Quick test_verifier_abort_loop_rejected;
       Alcotest.test_case "log overflow aborts" `Quick test_log_overflow_aborts ]) ]
