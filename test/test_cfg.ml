(* CFG recovery: blocks, edges, return sites and instruction starts. *)

module M = Dialed_msp430
module S = Dialed_staticcheck
module Memory = M.Memory
module Assemble = M.Assemble
module Asm_parse = M.Asm_parse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sweep source =
  let img = Assemble.assemble (Asm_parse.parse source) in
  let mem = Memory.create () in
  Assemble.load img mem;
  let lo, hi =
    match img.Assemble.segments with
    | [ (base, bytes) ] -> (base, base + String.length bytes - 1)
    | _ -> Alcotest.fail "expected one segment"
  in
  (S.Stream.of_memory mem ~lo ~hi, img)

let build_cfg source =
  let stream, img = sweep source in
  (S.Basic_block.build stream ~entry:stream.S.Stream.lo, img)

let test_straight_line () =
  let cfg, _ =
    build_cfg {|
        .org 0xe000
    start:
        mov #1, r5
        add #2, r5
        jmp $
    |}
  in
  check_int "one block ending in halt" 1
    (List.length (S.Basic_block.blocks cfg))

let test_diamond () =
  let cfg, img =
    build_cfg {|
        .org 0xe000
    start:
        cmp #0, r15
        jeq else_
        mov #1, r5
        jmp join
    else_:
        mov #2, r5
    join:
        mov r5, r6
        jmp $
    |}
  in
  let at name = Assemble.symbol img name in
  let succs = S.Basic_block.successors cfg 0xE000 in
  check_bool "cond has two successors" true (List.length succs = 2);
  check_bool "taken edge" true (List.mem (at "else_") succs);
  let join_succs = S.Basic_block.successors cfg (at "else_") in
  check_bool "else falls to join" true (List.mem (at "join") join_succs)

let test_call_and_return_sites () =
  let cfg, img =
    build_cfg {|
        .org 0xe000
    start:
        call #sub
    after:
        jmp $
    sub:
        mov #1, r5
        ret
    |}
  in
  let after = Assemble.symbol img "after" in
  Alcotest.(check (list int)) "return site" [ after ]
    (S.Basic_block.call_return_sites cfg);
  check_bool "call edge to sub" true
    (List.mem (Assemble.symbol img "sub")
       (S.Basic_block.successors cfg 0xE000))

let test_instruction_starts () =
  let stream, _ =
    sweep {|
        .org 0xe000
    start:
        mov #0x1234, r5   ; 4 bytes
        jmp $
    |}
  in
  let is_start a = S.Stream.index_at stream a <> None in
  check_bool "0xe000 is code" true (is_start 0xE000);
  check_bool "0xe002 is the ext word" false (is_start 0xE002);
  check_bool "0xe004 is code" true (is_start 0xE004)

let test_block_containing () =
  let cfg, _ =
    build_cfg {|
        .org 0xe000
    start:
        mov #1, r5
        mov #2, r6
        jmp $
    |}
  in
  match S.Basic_block.block_containing cfg 0xE002 with
  | Some b -> check_int "block starts at entry" 0xE000 b.S.Basic_block.b_start
  | None -> Alcotest.fail "no block"

let test_flow_per_form () =
  (* what each instruction form does to the pc, as the CFG and the
     CF-Log walker both read it *)
  let forms =
    [ "jmp $"; "jmp target"; "jne target"; "ret"; "reti"; "mov #target, pc";
      "br r5"; "add r5, pc"; "call #target"; "call r5"; "mov r5, r6" ]
  in
  let stream, img =
    sweep
      (String.concat "\n" ((".org 0xe000" :: forms) @ [ "target:"; "jmp $" ]))
  in
  let t = Assemble.symbol img "target" in
  let expected =
    M.Isa.[ Halt; Goto t; Branch t; Return; Return; Goto t; Computed;
            Computed; Call_to (Some t); Call_to None; Next ]
  in
  List.iteri
    (fun i (form, want) ->
       let e = S.Stream.get stream i in
       check_bool form true
         (M.Isa.flow ~at:e.S.Stream.addr ~next:e.S.Stream.next e.S.Stream.ins
          = want))
    (List.combine forms expected)

let suites =
  [ ("cfg",
     [ Alcotest.test_case "straight line" `Quick test_straight_line;
       Alcotest.test_case "diamond" `Quick test_diamond;
       Alcotest.test_case "calls and return sites" `Quick test_call_and_return_sites;
       Alcotest.test_case "instruction starts" `Quick test_instruction_starts;
       Alcotest.test_case "block containing" `Quick test_block_containing;
       Alcotest.test_case "Isa.flow per instruction form" `Quick
         test_flow_per_form ]) ]
