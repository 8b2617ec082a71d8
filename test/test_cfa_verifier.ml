(* Standalone Tiny-CFA verification (static CF-Log walk): catches the
   control-flow hijack without any data replay, and — the paper's central
   motivation — provably CANNOT see the data-only attack that DIALED
   detects. *)

module M = Dialed_msp430
module A = Dialed_apex
module C = Dialed_core
module Asm_parse = M.Asm_parse
module Assemble = M.Assemble

let check_bool = Alcotest.(check bool)

(* same vulnerable parser as the e2e suite (Fig. 1) *)
let parse_op = {|
    process_commands:
        call #parse
    after_parse:
        br #__op_exit
    check_and_actuate:
        cmp #10, r15
        jge no_act
    actuate:
        mov.b #1, &0x0019
    no_act:
        ret
    parse:
        sub #8, sp
        mov.b &0x0076, r13
        clr r12
    ploop:
        cmp r13, r12
        jge pdone
        mov.b &0x0076, r11
        mov sp, r10
        add r12, r10
        mov.b r11, 0(r10)
        inc r12
        jmp ploop
    pdone:
        add #8, sp
        ret
    |}

(* the Fig. 2 data-only app *)
let inject_op = {|
    inject_medicine:
        mov r14, r13
        rla r13
        mov #settings, r12
        add r13, r12
        mov r15, 0(r12)
        mov &settings, r13
        cmp #10, r13
        jge no_actuation
        mov &set_var, r12
        mov.b r12, &0x0019
    no_actuation:
        br #__op_exit
    |}

let inject_data = {|
    settings:
        .word 5, 0, 0, 0, 0, 0, 0, 0
    set_var:
        .word 0x1
    |}

let build_cfa op ?data () =
  C.Pipeline.build ~variant:C.Pipeline.Cfa_only
    ?data:(Option.map Asm_parse.parse data)
    ~op:(Asm_parse.parse op) ()

let attest_after built feed args =
  let device = C.Pipeline.device built in
  feed device;
  let result = A.Device.run_operation ~args device in
  (device, result, A.Device.attest device ~challenge:"cfa-test")

let test_benign_path_validates () =
  let built = build_cfa parse_op () in
  let feed device =
    M.Peripherals.feed_uart (A.Device.board device) [ 4; 1; 2; 3; 4 ]
  in
  let _, result, report = attest_after built feed [ 50 ] in
  check_bool "completed" true result.A.Device.completed;
  let outcome = C.Cfa_verifier.verify built report in
  (match outcome.C.Cfa_verifier.error with
   | Some e -> Alcotest.failf "benign path rejected: %a" C.Cfa_verifier.pp_error e
   | None -> ());
  check_bool "consumed entries" true (outcome.C.Cfa_verifier.path_length > 5)

let test_loop_iterations_visible () =
  let built = build_cfa parse_op () in
  let run n =
    let feed device =
      M.Peripherals.feed_uart (A.Device.board device)
        (n :: List.init n (fun i -> i))
    in
    let _, _, report = attest_after built feed [ 50 ] in
    (C.Cfa_verifier.verify built report).C.Cfa_verifier.path_length
  in
  check_bool "more iterations, longer validated path" true (run 6 > run 2)

let test_cf_attack_caught_statically () =
  let built = build_cfa parse_op () in
  let image = built.C.Pipeline.image in
  let actuate = Assemble.symbol image "actuate" in
  let after_parse = Assemble.symbol image "after_parse" in
  let caller_ret = Assemble.symbol image "__caller_ret" in
  let lo v = v land 0xFF and hi v = (v lsr 8) land 0xFF in
  let payload =
    [ 14; 0; 0; 0; 0; 0; 0; 0; 0;
      lo actuate; hi actuate;
      lo after_parse; hi after_parse;
      lo caller_ret; hi caller_ret ]
  in
  let feed device = M.Peripherals.feed_uart (A.Device.board device) payload in
  let device, result, report = attest_after built feed [ 50 ] in
  check_bool "attack completes" true result.A.Device.completed;
  check_bool "exec = 1" true (A.Monitor.exec_flag (A.Device.monitor device));
  let outcome = C.Cfa_verifier.verify built report in
  check_bool "static CFA verification rejects" true (not outcome.C.Cfa_verifier.ok);
  (match outcome.C.Cfa_verifier.error with
   | Some (C.Cfa_verifier.Bad_return _) -> ()
   | Some e ->
     Alcotest.failf "expected a bad-return finding, got %a"
       C.Cfa_verifier.pp_error e
   | None -> Alcotest.fail "no error")

let test_data_attack_invisible_to_cfa () =
  (* THE point of the paper: CFA alone accepts the Fig. 2 data-only attack *)
  let built = build_cfa inject_op ~data:inject_data () in
  let benign =
    let _, _, report = attest_after built (fun _ -> ()) [ 7; 3 ] in
    C.Cfa_verifier.verify built report
  in
  check_bool "benign accepted" true benign.C.Cfa_verifier.ok;
  let attacked =
    let _, _, report = attest_after built (fun _ -> ()) [ 0; 8 ] in
    C.Cfa_verifier.verify built report
  in
  check_bool "data-only attack ACCEPTED by CFA alone (needs DIALED)" true
    attacked.C.Cfa_verifier.ok;
  (* and the logged paths are even identical *)
  Alcotest.(check (list int)) "identical control flow"
    benign.C.Cfa_verifier.dests attacked.C.Cfa_verifier.dests

let test_forged_log_rejected () =
  let built = build_cfa inject_op ~data:inject_data () in
  let _, _, report = attest_after built (fun _ -> ()) [ 7; 3 ] in
  let or_data = Bytes.of_string report.A.Pox.or_data in
  let i = Bytes.length or_data - 6 in
  Bytes.set or_data i (Char.chr (Char.code (Bytes.get or_data i) lxor 0x01));
  let forged = { report with A.Pox.or_data = Bytes.to_string or_data } in
  let outcome = C.Cfa_verifier.verify built forged in
  check_bool "forged log rejected" true (not outcome.C.Cfa_verifier.ok);
  (match outcome.C.Cfa_verifier.error with
   | Some (C.Cfa_verifier.Bad_token _) -> ()
   | _ -> Alcotest.fail "expected token failure")

(* The strong attacker (Forge): overwrite logged destinations, given as
   (entry, value) pairs, and re-MAC the report, so the token passes and
   only the walk can object. *)
let doctor built (report : A.Pox.report) entries =
  let or_data = Bytes.of_string report.A.Pox.or_data in
  List.iter
    (fun (k, v) ->
       Forge.set_entry_word or_data (Forge.entry_offset report k) v)
    entries;
  Forge.token built { report with A.Pox.or_data = Bytes.to_string or_data }

let index_of v dests =
  match List.find_index (( = ) v) dests with
  | Some i -> i
  | None -> Alcotest.failf "0x%04x was never logged" v

let benign_parse_run () =
  let built = build_cfa parse_op () in
  let feed device =
    M.Peripherals.feed_uart (A.Device.board device) [ 4; 1; 2; 3; 4 ]
  in
  let _, _, report = attest_after built feed [ 50 ] in
  let outcome = C.Cfa_verifier.verify built report in
  check_bool "benign run validates" true outcome.C.Cfa_verifier.ok;
  (built, report, outcome.C.Cfa_verifier.dests)

let test_redirected_call_rejected () =
  let built, report, dests = benign_parse_run () in
  let image = built.C.Pipeline.image in
  let parse = Assemble.symbol image "parse" in
  let elsewhere = Assemble.symbol image "check_and_actuate" in
  let forged = doctor built report [ (index_of parse dests, elsewhere) ] in
  match (C.Cfa_verifier.verify built forged).C.Cfa_verifier.error with
  | Some (C.Cfa_verifier.Illegal_target { expected; got; _ }) ->
    Alcotest.(check int) "static target" parse expected;
    Alcotest.(check int) "logged target" elsewhere got
  | Some e ->
    Alcotest.failf "expected an illegal target, got %a"
      C.Cfa_verifier.pp_error e
  | None -> Alcotest.fail "redirected call accepted"

(* A log that claims the parse loop never ends: every entry after the
   call repeats one iteration's two destinations, so the walk runs off
   the end of the OR. *)
let test_endless_loop_exhausts_log () =
  let built, report, dests = benign_parse_run () in
  let ploop = Assemble.symbol built.C.Pipeline.image "ploop" in
  let i = index_of ploop dests in
  let fall = List.nth dests (i - 1) in
  let capacity = String.length report.A.Pox.or_data / 2 in
  let entries =
    List.init (capacity - i + 1) (fun j ->
        let k = i - 1 + j in
        (k, if j mod 2 = 0 then fall else ploop))
  in
  match
    (C.Cfa_verifier.verify built (doctor built report entries))
      .C.Cfa_verifier.error
  with
  | Some (C.Cfa_verifier.Log_exhausted _) -> ()
  | Some e ->
    Alcotest.failf "expected an exhausted log, got %a"
      C.Cfa_verifier.pp_error e
  | None -> Alcotest.fail "endless loop accepted"

let dispatch_op = {|
    dispatch:
        mov #landing, r5
        br r5
    landing:
        br #__op_exit
    |}

(* The benign dispatch run, its report and the index of its logged
   [br r5] destination. *)
let benign_dispatch_run () =
  let built = build_cfa dispatch_op () in
  let _, result, report = attest_after built (fun _ -> ()) [] in
  check_bool "completed" true result.A.Device.completed;
  let outcome = C.Cfa_verifier.verify built report in
  check_bool "benign dispatch validates" true outcome.C.Cfa_verifier.ok;
  let landing = Assemble.symbol built.C.Pipeline.image "landing" in
  (built, report, index_of landing outcome.C.Cfa_verifier.dests)

let expect_not_code built report k dest =
  match
    (C.Cfa_verifier.verify built (doctor built report [ (k, dest) ]))
      .C.Cfa_verifier.error
  with
  | Some (C.Cfa_verifier.Not_code a) ->
    Alcotest.(check int) "destination" dest a
  | Some e ->
    Alcotest.failf "expected a non-code destination, got %a"
      C.Cfa_verifier.pp_error e
  | None -> Alcotest.failf "branch to 0x%04x accepted" dest

let test_branch_out_of_er_rejected () =
  let built, report, k = benign_dispatch_run () in
  (* the OR is data memory: never code *)
  expect_not_code built report k report.A.Pox.or_min

(* The ER is decoded at instruction starts only: the immediate word of
   [mov #landing, r5] lies inside the ER but is no place to land. *)
let test_mid_instruction_dest_rejected () =
  let built, report, k = benign_dispatch_run () in
  let image = built.C.Pipeline.image in
  let dispatch = Assemble.symbol image "dispatch" in
  let mem = M.Memory.create () in
  Assemble.load image mem;
  (match M.Disasm.instruction_at mem dispatch with
   | Some (_, next) -> Alcotest.(check int) "two-word mov" (dispatch + 4) next
   | None -> Alcotest.fail "no instruction at dispatch");
  expect_not_code built report k (dispatch + 2)

(* golden strings: verifier diagnostics are part of the tool's surface *)
let test_error_messages () =
  let golden expected err =
    Alcotest.(check string) expected expected
      (Format.asprintf "%a" C.Cfa_verifier.pp_error err)
  in
  golden "token rejected: EXEC = 0" (C.Cfa_verifier.Bad_token "EXEC = 0");
  golden
    "illegal control-flow edge at 0xe000: logged 0xe010, static target 0xe004"
    (C.Cfa_verifier.Illegal_target
       { at = 0xE000; expected = 0xE004; got = 0xE010 });
  golden "return at 0xe00a to 0xe000, shadow stack expects 0xe004"
    (C.Cfa_verifier.Bad_return
       { at = 0xE00A; expected = 0xE004; got = 0xE000 });
  golden "destination 0x0200 is not code" (C.Cfa_verifier.Not_code 0x200);
  golden "unresolvable conditional at 0xe002" (C.Cfa_verifier.Ambiguous 0xE002);
  golden "CF-Log exhausted while walking at 0xe000"
    (C.Cfa_verifier.Log_exhausted 0xE000);
  golden "malformed instrumentation: walk did not terminate"
    (C.Cfa_verifier.Malformed "walk did not terminate")

let test_no_exec_rejected () =
  let built = build_cfa inject_op ~data:inject_data () in
  let device = C.Pipeline.device built in
  (* attest without running *)
  let report = A.Device.attest device ~challenge:"cfa-test" in
  let outcome = C.Cfa_verifier.verify built report in
  check_bool "no exec, rejected" true (not outcome.C.Cfa_verifier.ok)

let suites =
  [ ("cfa-verifier",
     [ Alcotest.test_case "benign path validates" `Quick test_benign_path_validates;
       Alcotest.test_case "loop iterations visible" `Quick test_loop_iterations_visible;
       Alcotest.test_case "cf attack caught statically" `Quick test_cf_attack_caught_statically;
       Alcotest.test_case "data attack invisible to CFA" `Quick test_data_attack_invisible_to_cfa;
       Alcotest.test_case "forged log rejected" `Quick test_forged_log_rejected;
       Alcotest.test_case "redirected call rejected" `Quick
         test_redirected_call_rejected;
       Alcotest.test_case "branch out of the ER rejected" `Quick
         test_branch_out_of_er_rejected;
       Alcotest.test_case "endless loop exhausts the log" `Quick
         test_endless_loop_exhausts_log;
       Alcotest.test_case "mid-instruction destination rejected" `Quick
         test_mid_instruction_dest_rejected;
       Alcotest.test_case "error messages" `Quick test_error_messages;
       Alcotest.test_case "no exec rejected" `Quick test_no_exec_rejected ]) ]
