(* The static auditor: in-tree binaries audit clean, stripped variants do
   not, the footprint analysis behaves on hand-built shapes, and the
   recognizers track the real emitters (QCheck encode/decode round-trip
   over the audited ISA subset + random MiniC programs). *)

module M = Dialed_msp430
module Isa = M.Isa
module C = Dialed_core
module S = Dialed_staticcheck
module T = Dialed_tinycfa.Instrument
module A = Dialed_apps.Apps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let report_str r = Format.asprintf "%a" S.Report.pp r

let kinds r =
  List.map S.Report.finding_kind r.S.Report.findings |> List.sort_uniq compare

let audit ?config built = C.Verifier.audit_built ?config built

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* every in-tree binary audits clean *)

let test_apps_audit_clean () =
  List.iter
    (fun app ->
       let built = A.build app in
       let r = audit built in
       Alcotest.(check string)
         (app.A.name ^ " audits clean") ""
         (if S.Report.ok r then "" else report_str r))
    (A.syringe_pump_vuln :: A.all)

let test_clean_stats_cross_check () =
  List.iter
    (fun app ->
       let built = A.build app in
       let r = audit built in
       let cf, input = T.count_sites built.C.Pipeline.program in
       check_int (app.A.name ^ " cf sites") cf
         r.S.Report.stats.S.Report.cf_sites;
       check_int (app.A.name ^ " input sites") input
         r.S.Report.stats.S.Report.input_sites)
    (A.syringe_pump_vuln :: A.all)

(* ------------------------------------------------------------------ *)
(* partially instrumented / raw variants are rejected with the right
   classes *)

let test_cfa_only_rejected () =
  let built = A.build ~variant:C.Pipeline.Cfa_only A.fire_sensor in
  let r = audit built in
  check_bool "cfa-only is not clean" false (S.Report.ok r);
  check_bool "missing F3 snapshot flagged" true
    (List.mem "base-sp-save" (kinds r))

let test_unmodified_rejected () =
  let built = A.build ~variant:C.Pipeline.Unmodified A.fire_sensor in
  let r = audit built in
  check_bool "unmodified is not clean" false (S.Report.ok r);
  check_bool "no abort loop" true (List.mem "abort-loop" (kinds r));
  check_bool "entry check missing" true (List.mem "entry-check" (kinds r));
  check_bool "unlogged control flow" true (List.mem "unlogged-cf" (kinds r))

(* ------------------------------------------------------------------ *)
(* footprint analysis on hand-built operations *)

let parse = M.Asm_parse.parse
let build_op src = C.Pipeline.build ~or_min:0x0280 ~op:(parse src) ()
let footprint built = (audit built).S.Report.stats.S.Report.footprint

let test_footprint_straight_line () =
  (* 9 entry appends + the final ret's CF append *)
  let built = build_op "op:\n    mov #1, r5\n    ret\n" in
  match footprint built with
  | S.Report.Bounded n -> check_int "straight-line worst case" 10 n
  | S.Report.Unbounded why -> Alcotest.failf "unexpectedly unbounded: %s" why

let loop_op = "op:\n    mov #5, r5\nloop:\n    sub #1, r5\n    jnz loop\n    ret\n"

let test_footprint_loop_unbounded () =
  match footprint (build_op loop_op) with
  | S.Report.Unbounded _ -> ()
  | S.Report.Bounded n ->
    Alcotest.failf "loop without a bound policy gave Bounded %d" n

let test_footprint_loop_bounded_policy () =
  let config = { S.Audit.default_config with S.Audit.loop_bound = Some 8 } in
  let r = audit ~config (build_op loop_op) in
  (match r.S.Report.stats.S.Report.footprint with
   | S.Report.Bounded n -> check_bool "policy bound dominates" true (n > 9)
   | S.Report.Unbounded why ->
     Alcotest.failf "loop_bound 8 still unbounded: %s" why);
  check_bool "clean under the policy" true (S.Report.ok r)

let test_footprint_require_bounded () =
  let config =
    { S.Audit.default_config with S.Audit.require_bounded = true }
  in
  let r = audit ~config (build_op loop_op) in
  check_bool "unbounded footprint becomes a finding" true
    (List.mem "unbounded-footprint" (kinds r))

let test_footprint_overflow_flagged () =
  (* an 8-entry OR cannot hold the 9-entry F3 snapshot + the ret append *)
  let built =
    C.Pipeline.build ~or_min:0x05F0
      ~op:(parse "op:\n    mov #1, r5\n    ret\n") ()
  in
  check_bool "log overflow flagged" true
    (List.mem "log-overflow" (kinds (audit built)))

let test_capacity () =
  (* default OR [0x0400, 0x05FF] holds 256 two-byte entries *)
  check_int "capacity" 256
    (S.Audit.capacity_entries ~or_min:0x0400 ~or_max:0x05FE)

(* ------------------------------------------------------------------ *)
(* selective discipline: every in-tree binary also audits clean when
   built selectively (the dataflow pass proves the dropped F4 coverage
   safe), and a read guard is only an acceptable substitute for a log
   entry under that discipline *)

let test_selective_apps_audit_clean () =
  List.iter
    (fun app ->
       let built = A.build ~selective:true app in
       let r = audit built in
       Alcotest.(check string)
         (app.A.name ^ " selective audits clean") ""
         (if S.Report.ok r then "" else report_str r))
    A.all

let guarded_op =
  "op:\n\
  \    mov #2, r14\n\
  \    .annot load arr arr 8\n\
  \    mov arr(r14), r15\n\
  \    ret\n"

let guarded_build () =
  let dfa_config =
    { C.Dfa.default_config with
      C.Dfa.selective = Some { C.Dfa.critical = [] } }
  in
  C.Pipeline.build ~dfa_config
    ~data:(parse "arr:\n    .space 8\n")
    ~op:(parse guarded_op) ()

let test_read_guard_selective_only () =
  let built = guarded_build () in
  (* under its own discipline the guarded binary is clean *)
  check_bool "selective build carries the reduced discipline" true
    built.C.Pipeline.selective;
  check_bool "guarded read audits clean under selective" true
    (S.Report.ok (audit built));
  (* the same binary audited against the FULL discipline is rejected: a
     guard is not a log entry. [Verifier.audit_built] would force the
     build's own discipline back on, so call the auditor directly. *)
  let mem = M.Memory.create () in
  M.Assemble.load built.C.Pipeline.image mem;
  let l = built.C.Pipeline.layout in
  let r =
    S.Audit.audit ~mem
      ~er_min:l.Dialed_apex.Layout.er_min ~er_max:l.Dialed_apex.Layout.er_max
      ~or_min:l.Dialed_apex.Layout.or_min ~or_max:l.Dialed_apex.Layout.or_max
      ()
  in
  check_bool "guard does not satisfy the full discipline" false
    (S.Report.ok r)

(* ------------------------------------------------------------------ *)
(* plan integration + report serialization *)

let test_plan_carries_audit () =
  let built = A.build A.syringe_pump in
  let plan = C.Verifier.plan ~audit:S.Audit.default_config built in
  match C.Verifier.plan_audit plan with
  | Some r -> check_bool "plan audit clean" true (S.Report.ok r)
  | None -> Alcotest.fail "plan built with ~audit carries no report"

let test_json_shape () =
  let r = audit (A.build A.fire_sensor) in
  let json = S.Report.to_json r in
  List.iter
    (fun key -> check_bool ("json has " ^ key) true (contains json key))
    [ "\"ok\""; "\"findings\""; "\"cf_sites\""; "\"input_sites\"";
      "\"footprint\"" ];
  let bad = audit (A.build ~variant:C.Pipeline.Unmodified A.fire_sensor) in
  check_bool "findings serialize with kinds" true
    (contains (S.Report.to_json bad) "\"unlogged-cf\"")

let test_summary () =
  let r = audit (A.build A.syringe_pump) in
  Alcotest.(check string) "clean summary" "clean" (S.Report.summary r)

(* findings are presented sorted by (anchor address, kind) and exact
   duplicates collapse, whatever order the passes emitted them in *)
let test_normalize_orders_and_dedupes () =
  let a = S.Report.Unchecked_read { at = 0xE010 } in
  let b = S.Report.Unchecked_store { at = 0xE004 } in
  let c = S.Report.Critical_not_covered { at = 0xE004; ea = 0x0140 } in
  let got = S.Report.normalize [ a; c; b; a; c ] in
  Alcotest.(check (list string))
    "sorted by (addr, kind), deduped"
    [ "critical-not-covered"; "unchecked-store"; "unchecked-read" ]
    (List.map S.Report.finding_kind got);
  check_int "duplicates collapsed" 3 (List.length got)

let test_sarif_shape () =
  let clean = audit (A.build A.fire_sensor) in
  let s = S.Report.to_sarif clean in
  List.iter
    (fun key -> check_bool ("sarif has " ^ key) true (contains s key))
    [ "\"version\":\"2.1.0\""; "sarif-2.1.0.json"; "\"runs\""; "dialed-lint" ];
  let bad = audit (A.build ~variant:C.Pipeline.Unmodified A.fire_sensor) in
  let s = S.Report.to_sarif ~uri:"fire.bin" bad in
  List.iter
    (fun key -> check_bool ("sarif result has " ^ key) true (contains s key))
    [ "\"ruleId\""; "unlogged-cf"; "absoluteAddress"; "fire.bin" ]

let test_sarif_multi_one_run_per_app () =
  (* two rejected builds, so each run carries results anchored to its
     own artifact uri *)
  let bad1 = audit (A.build ~variant:C.Pipeline.Cfa_only A.fire_sensor) in
  let bad2 = audit (A.build ~variant:C.Pipeline.Unmodified A.fire_sensor) in
  let s = S.Report.to_sarif_multi [ ("a.bin", bad1); ("b.bin", bad2) ] in
  check_bool "first artifact present" true (contains s "a.bin");
  check_bool "second artifact present" true (contains s "b.bin");
  let count_driver =
    let n = ref 0 in
    let needle = "dialed-lint" in
    let nh = String.length s and nn = String.length needle in
    for i = 0 to nh - nn do
      if String.sub s i nn = needle then incr n
    done;
    !n
  in
  check_int "one tool.driver per run" 2 count_driver

(* ------------------------------------------------------------------ *)
(* QCheck: encode/decode round-trip over the ISA subset the auditor
   pattern-matches, so the recognizers cannot drift from the codec *)

let gen_reg = QCheck.Gen.oneofl [ 0; 1; 4; 5; 6; 10; 12; 15 ]

(* memory-operand bases: r0 in indirect/indexed modes aliases the
   immediate and symbolic encodings and cannot round-trip *)
let gen_base = QCheck.Gen.oneofl [ 1; 4; 5; 6; 10; 12; 15 ]

let gen_imm =
  QCheck.Gen.oneofl [ 0; 1; 2; 4; 8; 5; 0xFF; 0x0280; 0x1234; 0xE000; 0xFFFF ]

let gen_src =
  QCheck.Gen.(
    frequency
      [ (3, map (fun r -> Isa.Sreg r) gen_reg);
        (3, map (fun n -> Isa.Simm n) gen_imm);
        (2, map2 (fun x r -> Isa.Sindexed (x, r)) (oneofl [ 0; 2; 4; 0x10 ]) gen_base);
        (1, map (fun a -> Isa.Sabsolute a) gen_imm);
        (1, map (fun r -> Isa.Sindirect r) gen_base);
        (1, map (fun r -> Isa.Sindirect_inc r) gen_base) ])

let gen_dst =
  QCheck.Gen.(
    frequency
      [ (3, map (fun r -> Isa.Dreg r) gen_reg);
        (2, map2 (fun x r -> Isa.Dindexed (x, r)) (oneofl [ 0; 2; 4; 0x10 ]) gen_base);
        (1, map (fun a -> Isa.Dabsolute a) gen_imm) ])

let gen_two_op =
  QCheck.Gen.oneofl [ Isa.MOV; Isa.ADD; Isa.SUB; Isa.CMP; Isa.BIT; Isa.AND ]

let gen_instr =
  QCheck.Gen.(
    frequency
      [ (5,
         map2
           (fun op (src, dst) -> Isa.Two (op, Isa.Word, src, dst))
           gen_two_op (pair gen_src gen_dst));
        (2,
         map2
           (fun cond off -> Isa.Jump (cond, off))
           (oneofl [ Isa.JNE; Isa.JEQ; Isa.JNC; Isa.JC; Isa.JGE; Isa.JMP ])
           (int_range (-200) 200));
        (1, map (fun src -> Isa.One (Isa.PUSH, Isa.Word, src)) gen_src);
        (1, map (fun src -> Isa.One (Isa.CALL, Isa.Word, src)) gen_src) ])

let arb_instr =
  QCheck.make ~print:(fun i -> Format.asprintf "%a" Isa.pp i)
    gen_instr

let roundtrip_test =
  QCheck.Test.make ~name:"auditor ISA subset: decode . encode = id"
    ~count:2000 arb_instr (fun instr ->
      match M.Encode.encode instr with
      | exception M.Encode.Unencodable _ -> QCheck.assume_fail ()
      | words ->
        let arr = Array.of_list words in
        let get_word addr = arr.((addr - 0x1000) / 2) in
        (match M.Decode.decode ~get_word 0x1000 with
         | exception _ ->
           QCheck.Test.fail_reportf "decode raised on %a"
             Isa.pp instr
         | decoded, next ->
           if decoded <> instr then
             QCheck.Test.fail_reportf "decoded %a from %a"
               Isa.pp decoded Isa.pp instr;
           next - 0x1000 = Isa.instr_size_bytes instr))

(* random MiniC programs: whatever the pipeline emits, the auditor
   accepts — pins the recognizers to the actual emitters *)
let audit_accepts_random =
  QCheck.Test.make ~name:"auditor accepts random instrumented programs"
    ~count:25 Test_randprog.arb_program (fun stmts ->
      let source = Test_randprog.program_source stmts in
      let built =
        Test_randprog.build_program (Dialed_minic.Minic.compile source)
      in
      let r = audit built in
      if not (S.Report.ok r) then
        QCheck.Test.fail_reportf "audit rejected:\n%s\n--- source ---\n%s"
          (report_str r) source;
      true)

let suites =
  [ ("staticcheck",
     [ Alcotest.test_case "apps audit clean" `Quick test_apps_audit_clean;
       Alcotest.test_case "stats cross-check" `Quick
         test_clean_stats_cross_check;
       Alcotest.test_case "cfa-only rejected" `Quick test_cfa_only_rejected;
       Alcotest.test_case "unmodified rejected" `Quick
         test_unmodified_rejected;
       Alcotest.test_case "footprint straight line" `Quick
         test_footprint_straight_line;
       Alcotest.test_case "footprint loop unbounded" `Quick
         test_footprint_loop_unbounded;
       Alcotest.test_case "footprint loop policy" `Quick
         test_footprint_loop_bounded_policy;
       Alcotest.test_case "footprint require bounded" `Quick
         test_footprint_require_bounded;
       Alcotest.test_case "footprint overflow" `Quick
         test_footprint_overflow_flagged;
       Alcotest.test_case "capacity" `Quick test_capacity;
       Alcotest.test_case "selective apps audit clean" `Quick
         test_selective_apps_audit_clean;
       Alcotest.test_case "read guard selective-only" `Quick
         test_read_guard_selective_only;
       Alcotest.test_case "plan carries audit" `Quick test_plan_carries_audit;
       Alcotest.test_case "json shape" `Quick test_json_shape;
       Alcotest.test_case "summary" `Quick test_summary;
       Alcotest.test_case "normalize orders and dedupes" `Quick
         test_normalize_orders_and_dedupes;
       Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
       Alcotest.test_case "sarif multi-run" `Quick
         test_sarif_multi_one_run_per_app;
       QCheck_alcotest.to_alcotest roundtrip_test;
       QCheck_alcotest.to_alcotest audit_accepts_random ]) ]
