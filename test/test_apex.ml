(* APEX substrate: monitor EXEC semantics under the paper's threat model,
   VRASED measurement, and PoX report verification. *)

module M = Dialed_msp430
module A = Dialed_apex
module Memory = M.Memory
module Assemble = M.Assemble
module Asm_parse = M.Asm_parse

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A minimal attested operation: read the argument from r15, double it,
   store the result into OR (legal: ER code may write OR), return. *)
let op_source = {|
        .org 0xe000
    op_entry:
        mov r15, r5
        add r5, r5
        mov r5, &0x0402       ; output word inside OR
    op_exit:
        ret
    op_end:
        .org 0xf000
    __caller:
        call #op_entry
    __caller_ret:
        jmp $
    |}

let build ?(source = op_source) () =
  let image = Assemble.assemble (Asm_parse.parse source) in
  let er_min = Assemble.symbol image "op_entry" in
  let er_max = Assemble.symbol image "op_end" - 1 in
  let er_exit = Assemble.symbol image "op_exit" in
  let layout =
    A.Layout.make ~er_min ~er_max ~er_exit
      ~or_min:A.Layout.default_or_min ~or_max:A.Layout.default_or_max
      ~stack_top:A.Layout.default_stack_top
  in
  A.Device.create ~image ~layout ()

let expected_er device =
  let l = A.Device.layout device in
  Memory.dump (A.Device.memory device) ~addr:l.A.Layout.er_min
    ~len:(l.A.Layout.er_max - l.A.Layout.er_min + 1)

let verify device report =
  A.Pox.verify ~key:A.Device.default_key ~expected_er:(expected_er device) report

let test_benign_run () =
  let d = build () in
  let er = expected_er d in
  let r = A.Device.run_operation ~args:[ 21 ] d in
  check_bool "completed" true r.A.Device.completed;
  check_bool "exec flag" true (A.Monitor.exec_flag (A.Device.monitor d));
  check_int "output in OR" 42 (Memory.peek16 (A.Device.memory d) 0x0402);
  let report = A.Device.attest d ~challenge:"nonce-1" in
  (match A.Pox.verify ~key:A.Device.default_key ~expected_er:er report with
   | Ok () -> ()
   | Error e -> Alcotest.failf "expected acceptance, got: %s" e)

let test_no_run_no_exec () =
  let d = build () in
  let report = A.Device.attest d ~challenge:"nonce" in
  check_bool "exec low before any run" false report.A.Pox.exec;
  (match verify d report with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "must not accept without execution")

let test_code_modification_detected () =
  let d = build () in
  let er = expected_er d in
  let l = A.Device.layout d in
  (* flip a byte of the op before running *)
  A.Device.attacker_write d ~addr:(l.A.Layout.er_min + 2) ~value:0xFF;
  ignore (A.Device.run_operation ~args:[ 1 ] d);
  let report = A.Device.attest d ~challenge:"n" in
  (match A.Pox.verify ~key:A.Device.default_key ~expected_er:er report with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "modified code must not verify")

let test_or_tamper_clears_exec () =
  let d = build () in
  ignore (A.Device.run_operation ~args:[ 2 ] d);
  check_bool "exec after run" true (A.Monitor.exec_flag (A.Device.monitor d));
  A.Device.attacker_write d ~addr:0x0402 ~value:0x00;
  check_bool "exec cleared by OR tamper" false
    (A.Monitor.exec_flag (A.Device.monitor d));
  (match verify d (A.Device.attest d ~challenge:"n") with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "tampered OR must not verify")

let test_irq_during_execution () =
  let d = build () in
  (* vector into empty memory: the "ISR" halts on a bad opcode, so the
     interrupted run can never be completed *)
  Memory.poke16 (A.Device.memory d) 0xFFFE 0xFFF0;
  (* the op itself never touches GIE, so arm it before entry *)
  M.Cpu.set_flag (A.Device.cpu d) `GIE true;
  A.Device.raise_irq_during d ~after_steps:2 ~vector:0xFFFE;
  ignore (A.Device.run_operation ~args:[ 3 ] d);
  check_bool "exec low after irq" false (A.Monitor.exec_flag (A.Device.monitor d))

let test_dma_during_execution () =
  let d = build () in
  (* run manually so we can inject DMA mid-run *)
  let image = A.Device.image d in
  let cpu = A.Device.cpu d in
  M.Cpu.set_reg cpu M.Isa.pc (Assemble.symbol image "__caller");
  M.Cpu.set_reg cpu M.Isa.sp 0x0A00;
  M.Cpu.set_reg cpu 15 5;
  let mon = A.Device.monitor d in
  (* caller call -> step 1; op instrs; inject DMA after two op steps *)
  for _ = 1 to 3 do A.Monitor.observe mon (M.Cpu.step cpu) done;
  check_bool "running" true (A.Monitor.running mon);
  A.Device.dma_write d ~addr:0x0900 ~value:1;
  for _ = 1 to 10 do
    if M.Cpu.halted cpu = None then A.Monitor.observe mon (M.Cpu.step cpu)
  done;
  check_bool "exec low after DMA" false (A.Monitor.exec_flag mon)

let test_enter_mid_er () =
  (* caller jumps into the middle of the op, skipping its first instr *)
  let source = {|
        .org 0xe000
    op_entry:
        mov r15, r5
    op_mid:
        add r5, r5
        mov r5, &0x0402
    op_exit:
        ret
    op_end:
        .org 0xf000
    __caller:
        call #op_mid
    __caller_ret:
        jmp $
    |}
  in
  let d = build ~source () in
  let r = A.Device.run_operation ~args:[ 4 ] d in
  check_bool "run completes (benignly to the CPU)" true r.A.Device.completed;
  check_bool "but exec stays low" false (A.Monitor.exec_flag (A.Device.monitor d))

let test_early_exit () =
  let source = {|
        .org 0xe000
    op_entry:
        mov r15, r5
        br #__caller_ret      ; leaves ER before er_exit
        mov r5, &0x0402
    op_exit:
        ret
    op_end:
        .org 0xf000
    __caller:
        call #op_entry
    __caller_ret:
        jmp $
    |}
  in
  let d = build ~source () in
  ignore (A.Device.run_operation ~args:[ 4 ] d);
  check_bool "exec low after early exit" false
    (A.Monitor.exec_flag (A.Device.monitor d))

let test_self_modifying_code () =
  let source = {|
        .org 0xe000
    op_entry:
        mov #0x4303, &0xe006  ; overwrite own next instruction word
        nop
        mov r5, &0x0402
    op_exit:
        ret
    op_end:
        .org 0xf000
    __caller:
        call #op_entry
    __caller_ret:
        jmp $
    |}
  in
  let d = build ~source () in
  ignore (A.Device.run_operation d);
  check_bool "exec low after write to ER" false
    (A.Monitor.exec_flag (A.Device.monitor d))

let test_reearn_exec_after_failure () =
  let d = build () in
  Memory.poke16 (A.Device.memory d) 0xFFFE 0xFFF0;
  M.Cpu.set_flag (A.Device.cpu d) `GIE true;
  A.Device.raise_irq_during d ~after_steps:2 ~vector:0xFFFE;
  ignore (A.Device.run_operation ~args:[ 3 ] d);
  check_bool "first run fails" false (A.Monitor.exec_flag (A.Device.monitor d));
  M.Cpu.set_flag (A.Device.cpu d) `GIE false;
  let r = A.Device.run_operation ~args:[ 5 ] d in
  check_bool "second run completes" true r.A.Device.completed;
  check_bool "exec re-earned by clean run" true
    (A.Monitor.exec_flag (A.Device.monitor d))

let test_challenge_freshness () =
  let d = build () in
  let er = expected_er d in
  ignore (A.Device.run_operation ~args:[ 21 ] d);
  let report = A.Device.attest d ~challenge:"nonce-A" in
  (* verifier expecting nonce-B must reject a replayed nonce-A report *)
  let replayed = { report with A.Pox.challenge = "nonce-B" } in
  (match A.Pox.verify ~key:A.Device.default_key ~expected_er:er replayed with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "replay with edited challenge must fail")

let test_forged_or_data () =
  let d = build () in
  let er = expected_er d in
  ignore (A.Device.run_operation ~args:[ 21 ] d);
  let report = A.Device.attest d ~challenge:"n" in
  let forged_or = String.map (fun _ -> '\x00') report.A.Pox.or_data in
  let forged = { report with A.Pox.or_data = forged_or } in
  (match A.Pox.verify ~key:A.Device.default_key ~expected_er:er forged with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "forged OR data must fail")

let test_token_edits_rejected () =
  let d = build () in
  let er = expected_er d in
  ignore (A.Device.run_operation ~args:[ 21 ] d);
  let report = A.Device.attest d ~challenge:"n" in
  let token = report.A.Pox.token in
  let last = String.length token - 1 in
  let flip i =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) token
  in
  List.iter
    (fun (name, token) ->
       match A.Pox.verify ~key:A.Device.default_key ~expected_er:er
               { report with A.Pox.token } with
       | Error _ -> ()
       | Ok () -> Alcotest.failf "%s token must fail" name)
    [ ("first byte flipped", flip 0); ("last byte flipped", flip last);
      ("truncated", String.sub token 0 last); ("extended", token ^ "\000") ];
  match A.Pox.verify ~key:A.Device.default_key ~expected_er:er report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "untouched token must verify: %s" e

let test_wrong_key_rejected () =
  let d = build () in
  let er = expected_er d in
  ignore (A.Device.run_operation ~args:[ 21 ] d);
  let report = A.Device.attest d ~challenge:"n" in
  (match A.Pox.verify ~key:"not-the-device-key" ~expected_er:er report with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "wrong key must fail")

let test_layout_validation () =
  let bad () =
    ignore
      (A.Layout.make ~er_min:0xE000 ~er_max:0xEFFF ~er_exit:0xE010
         ~or_min:0xE100 ~or_max:0xE1FE ~stack_top:0x0A00)
  in
  (match bad () with
   | exception A.Layout.Invalid _ -> ()
   | () -> Alcotest.fail "overlapping ER/OR must be rejected");
  (match
     A.Layout.make ~er_min:0xE001 ~er_max:0xE00F ~er_exit:0xE001
       ~or_min:0x0400 ~or_max:0x05FE ~stack_top:0x0A00
   with
   | exception A.Layout.Invalid _ -> ()
   | _ -> Alcotest.fail "odd er_min must be rejected")

let test_vrased_measures_actual_memory () =
  let mem = Memory.create () in
  Memory.load_image mem ~addr:0x1000 "hello";
  let v = A.Vrased.create ~key:"k" in
  let t1 = A.Vrased.attest v mem ~challenge:"c" ~regions:[ (0x1000, 0x1004) ] in
  Memory.poke8 mem 0x1002 0x00;
  let t2 = A.Vrased.attest v mem ~challenge:"c" ~regions:[ (0x1000, 0x1004) ] in
  check_bool "memory change changes MAC" false (String.equal t1 t2)

let suites =
  [ ("apex",
     [ Alcotest.test_case "benign run accepted" `Quick test_benign_run;
       Alcotest.test_case "no run, no exec" `Quick test_no_run_no_exec;
       Alcotest.test_case "code modification" `Quick test_code_modification_detected;
       Alcotest.test_case "OR tamper clears exec" `Quick test_or_tamper_clears_exec;
       Alcotest.test_case "irq during execution" `Quick test_irq_during_execution;
       Alcotest.test_case "dma during execution" `Quick test_dma_during_execution;
       Alcotest.test_case "enter ER mid-way" `Quick test_enter_mid_er;
       Alcotest.test_case "early exit" `Quick test_early_exit;
       Alcotest.test_case "self-modifying code" `Quick test_self_modifying_code;
       Alcotest.test_case "exec re-earned" `Quick test_reearn_exec_after_failure;
       Alcotest.test_case "challenge freshness" `Quick test_challenge_freshness;
       Alcotest.test_case "forged OR data" `Quick test_forged_or_data;
       Alcotest.test_case "token edits" `Quick test_token_edits_rejected;
       Alcotest.test_case "wrong key" `Quick test_wrong_key_rejected;
       Alcotest.test_case "layout validation" `Quick test_layout_validation;
       Alcotest.test_case "vrased measures memory" `Quick test_vrased_measures_actual_memory ]) ]
