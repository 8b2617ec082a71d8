(* CPU semantics: every instruction class, flag behaviour, addressing
   modes, stack discipline, interrupts and cycle accounting. Every case
   runs over both fetch paths: [decoded] fetches and decodes each
   instruction's bytes, [cached] attaches a decode cache over the booted
   code, so each step runs its slot's compiled executor. *)

module M = Dialed_msp430
module Memory = M.Memory
module Cpu = M.Cpu
module Isa = M.Isa
module Encode = M.Encode

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let code_base = 0xE000

type path = Decoded | Cached

(* Load instructions at [code_base], point pc there, sp at 0x0A00. *)
let boot path instrs =
  let mem = Memory.create () in
  let addr = ref code_base in
  List.iter
    (fun i ->
       List.iter
         (fun b ->
            Memory.poke8 mem !addr b;
            incr addr)
         (Encode.encode_bytes i))
    instrs;
  let cpu = Cpu.create mem in
  (match path with
   | Decoded -> ()
   | Cached ->
     M.Decode_cache.build ~lo:code_base ~hi:(!addr - 1)
       ~get_word:(Memory.peek16 mem) ()
     |> Cpu.compile |> Cpu.attach_executors cpu);
  Cpu.set_reg cpu Isa.pc code_base;
  Cpu.set_reg cpu Isa.sp 0x0A00;
  cpu

let exec path instrs =
  let cpu = boot path instrs in
  List.iter (fun _ -> ignore (Cpu.step cpu)) instrs;
  cpu

let mov_imm n r = Isa.Two (Isa.MOV, Isa.Word, Isa.Simm n, Isa.Dreg r)

let test_mov path () =
  let cpu = exec path [ mov_imm 0x1234 5 ] in
  check_int "r5" 0x1234 (Cpu.get_reg cpu 5);
  check_bool "mov sets no flags" false (Cpu.get_flag cpu `Z)

let test_mov_byte_clears_high path () =
  let cpu = exec path [ mov_imm 0xABCD 5;
                   Isa.Two (Isa.MOV, Isa.Byte, Isa.Simm 0x7F, Isa.Dreg 5) ] in
  check_int "byte write clears high byte" 0x7F (Cpu.get_reg cpu 5)

let test_add_flags path () =
  let cpu = exec path [ mov_imm 0x7FFF 5;
                   Isa.Two (Isa.ADD, Isa.Word, Isa.Simm 1, Isa.Dreg 5) ] in
  check_int "wrap" 0x8000 (Cpu.get_reg cpu 5);
  check_bool "overflow" true (Cpu.get_flag cpu `V);
  check_bool "negative" true (Cpu.get_flag cpu `N);
  check_bool "no carry" false (Cpu.get_flag cpu `C);
  let cpu = exec path [ mov_imm 0xFFFF 5;
                   Isa.Two (Isa.ADD, Isa.Word, Isa.Simm 1, Isa.Dreg 5) ] in
  check_int "wrap to zero" 0 (Cpu.get_reg cpu 5);
  check_bool "carry out" true (Cpu.get_flag cpu `C);
  check_bool "zero" true (Cpu.get_flag cpu `Z);
  check_bool "no overflow" false (Cpu.get_flag cpu `V)

let test_addc path () =
  let cpu = exec path [ mov_imm 0xFFFF 5;
                   Isa.Two (Isa.ADD, Isa.Word, Isa.Simm 1, Isa.Dreg 5); (* sets C *)
                   mov_imm 10 6;
                   Isa.Two (Isa.ADDC, Isa.Word, Isa.Simm 0, Isa.Dreg 6) ] in
  check_int "carry absorbed" 11 (Cpu.get_reg cpu 6)

let test_sub_borrow path () =
  (* 5 - 10: borrow means C = 0 on MSP430 *)
  let cpu = exec path [ mov_imm 5 5;
                   Isa.Two (Isa.SUB, Isa.Word, Isa.Simm 10, Isa.Dreg 5) ] in
  check_int "5-10" 0xFFFB (Cpu.get_reg cpu 5);
  check_bool "borrow -> C clear" false (Cpu.get_flag cpu `C);
  check_bool "negative" true (Cpu.get_flag cpu `N);
  (* 10 - 5: no borrow, C = 1 *)
  let cpu = exec path [ mov_imm 10 5;
                   Isa.Two (Isa.SUB, Isa.Word, Isa.Simm 5, Isa.Dreg 5) ] in
  check_int "10-5" 5 (Cpu.get_reg cpu 5);
  check_bool "no borrow -> C set" true (Cpu.get_flag cpu `C)

let test_cmp_preserves_dst path () =
  let cpu = exec path [ mov_imm 42 5;
                   Isa.Two (Isa.CMP, Isa.Word, Isa.Simm 42, Isa.Dreg 5) ] in
  check_int "dst untouched" 42 (Cpu.get_reg cpu 5);
  check_bool "equal -> Z" true (Cpu.get_flag cpu `Z);
  check_bool "equal -> C (no borrow)" true (Cpu.get_flag cpu `C)

let test_logic_ops path () =
  let cpu = exec path [ mov_imm 0b1100 5;
                   Isa.Two (Isa.AND, Isa.Word, Isa.Simm 0b1010, Isa.Dreg 5) ] in
  check_int "and" 0b1000 (Cpu.get_reg cpu 5);
  check_bool "and C = not Z" true (Cpu.get_flag cpu `C);
  let cpu = exec path [ mov_imm 0b1100 5;
                   Isa.Two (Isa.BIS, Isa.Word, Isa.Simm 0b0011, Isa.Dreg 5) ] in
  check_int "bis" 0b1111 (Cpu.get_reg cpu 5);
  let cpu = exec path [ mov_imm 0b1111 5;
                   Isa.Two (Isa.BIC, Isa.Word, Isa.Simm 0b0101, Isa.Dreg 5) ] in
  check_int "bic" 0b1010 (Cpu.get_reg cpu 5);
  let cpu = exec path [ mov_imm 0xFFFF 5;
                   Isa.Two (Isa.XOR, Isa.Word, Isa.Simm 0xFFFF, Isa.Dreg 5) ] in
  check_int "xor to zero" 0 (Cpu.get_reg cpu 5);
  check_bool "xor Z" true (Cpu.get_flag cpu `Z);
  check_bool "xor both-negative V" true (Cpu.get_flag cpu `V)

let test_bit path () =
  let cpu = exec path [ mov_imm 0x40 5;
                   Isa.Two (Isa.BIT, Isa.Word, Isa.Simm 0x40, Isa.Dreg 5) ] in
  check_int "bit preserves dst" 0x40 (Cpu.get_reg cpu 5);
  check_bool "bit C" true (Cpu.get_flag cpu `C);
  check_bool "bit Z clear" false (Cpu.get_flag cpu `Z)

let test_dadd path () =
  (* BCD: 0x0199 + 0x0001 = 0x0200 *)
  let cpu = exec path [ mov_imm 0x0199 5;
                   Isa.Two (Isa.DADD, Isa.Word, Isa.Simm 1, Isa.Dreg 5) ] in
  check_int "bcd add" 0x0200 (Cpu.get_reg cpu 5);
  (* BCD carry out: 0x9999 + 0x0001 *)
  let cpu = exec path [ mov_imm 0x9999 5;
                   Isa.Two (Isa.DADD, Isa.Word, Isa.Simm 1, Isa.Dreg 5) ] in
  check_int "bcd wrap" 0x0000 (Cpu.get_reg cpu 5);
  check_bool "bcd carry" true (Cpu.get_flag cpu `C)

let test_indexed_and_absolute path () =
  let cpu = boot path [ mov_imm 0x0200 5;
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Simm 0xBEEF, Isa.Dindexed (4, 5));
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Sindexed (4, 5), Isa.Dreg 6);
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Sabsolute 0x0204, Isa.Dabsolute 0x0210) ] in
  for _ = 1 to 4 do ignore (Cpu.step cpu) done;
  check_int "store indexed" 0xBEEF (Memory.peek16 (Cpu.memory cpu) 0x0204);
  check_int "load indexed" 0xBEEF (Cpu.get_reg cpu 6);
  check_int "absolute move" 0xBEEF (Memory.peek16 (Cpu.memory cpu) 0x0210)

let test_autoincrement path () =
  let cpu = boot path [ mov_imm 0x0200 5;
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Sindirect_inc 5, Isa.Dreg 6);
                   Isa.Two (Isa.MOV, Isa.Byte, Isa.Sindirect_inc 5, Isa.Dreg 7) ] in
  Memory.poke16 (Cpu.memory cpu) 0x0200 0x1122;
  Memory.poke8 (Cpu.memory cpu) 0x0202 0x33;
  for _ = 1 to 3 do ignore (Cpu.step cpu) done;
  check_int "word load" 0x1122 (Cpu.get_reg cpu 6);
  check_int "byte load" 0x33 (Cpu.get_reg cpu 7);
  (* word load advanced r5 by 2, byte load by 1 *)
  check_int "final pointer" 0x0203 (Cpu.get_reg cpu 5)

let test_push_call_ret path () =
  (* call a subroutine that sets r5 and returns (ret = mov @sp+, pc) *)
  let sub_addr = code_base + 8 in
  let cpu = boot path [ Isa.One (Isa.CALL, Isa.Word, Isa.Simm sub_addr);   (* 4 bytes *)
                   Isa.Jump (Isa.JMP, -1);                            (* halt: self *)
                   mov_imm 0 15;  (* padding to place sub at +8 *)
                   (* sub: *)
                   mov_imm 99 5;
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Sindirect_inc Isa.sp,
                            Isa.Dreg Isa.pc) ] in
  (* call *)
  ignore (Cpu.step cpu);
  check_int "sp after call" 0x09FE (Cpu.get_reg cpu Isa.sp);
  check_int "return address pushed" (code_base + 4)
    (Memory.peek16 (Cpu.memory cpu) 0x09FE);
  check_int "pc at sub" sub_addr (Cpu.get_reg cpu Isa.pc);
  (* body + ret *)
  ignore (Cpu.step cpu);
  ignore (Cpu.step cpu);
  check_int "r5 set" 99 (Cpu.get_reg cpu 5);
  check_int "returned" (code_base + 4) (Cpu.get_reg cpu Isa.pc);
  check_int "sp restored" 0x0A00 (Cpu.get_reg cpu Isa.sp);
  (* the jmp $ halts *)
  ignore (Cpu.step cpu);
  (match Cpu.halted cpu with
   | Some (Cpu.Self_jump a) -> check_int "halt addr" (code_base + 4) a
   | _ -> Alcotest.fail "expected self-jump halt")

let test_push_pop_byte path () =
  let cpu = exec path [ mov_imm 0xAB 5;
                   Isa.One (Isa.PUSH, Isa.Word, Isa.Sreg 5);
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Sindirect_inc Isa.sp, Isa.Dreg 6) ] in
  check_int "push/pop roundtrip" 0xAB (Cpu.get_reg cpu 6);
  check_int "sp balanced" 0x0A00 (Cpu.get_reg cpu Isa.sp)

let test_jumps path () =
  (* jeq taken: mov #5, r5; cmp #5, r5; jeq +1 (skip mov #1, r6); mov #2, r7 *)
  let cpu = boot path [ mov_imm 5 5;
                   Isa.Two (Isa.CMP, Isa.Word, Isa.Simm 5, Isa.Dreg 5);
                   Isa.Jump (Isa.JEQ, 1);
                   mov_imm 1 6;
                   mov_imm 2 7 ] in
  for _ = 1 to 4 do ignore (Cpu.step cpu) done;
  check_int "skipped" 0 (Cpu.get_reg cpu 6);
  check_int "landed" 2 (Cpu.get_reg cpu 7)

let test_signed_jumps path () =
  (* jl on signed comparison: -1 < 1 *)
  let cpu = boot path [ mov_imm 0xFFFF 5;  (* -1 *)
                   Isa.Two (Isa.CMP, Isa.Word, Isa.Simm 1, Isa.Dreg 5);
                   Isa.Jump (Isa.JL, 2);  (* skip the 4-byte mov *)
                   mov_imm 7 6;
                   mov_imm 8 7 ] in
  for _ = 1 to 4 do ignore (Cpu.step cpu) done;
  check_int "jl taken" 0 (Cpu.get_reg cpu 6);
  check_int "jl target" 8 (Cpu.get_reg cpu 7)

let test_unsigned_jumps path () =
  (* jc/jhs on unsigned: 0xFFFF >= 1 *)
  let cpu = boot path [ mov_imm 0xFFFF 5;
                   Isa.Two (Isa.CMP, Isa.Word, Isa.Simm 1, Isa.Dreg 5);
                   Isa.Jump (Isa.JC, 2);  (* skip the 4-byte mov *)
                   mov_imm 7 6;
                   mov_imm 8 7 ] in
  for _ = 1 to 4 do ignore (Cpu.step cpu) done;
  check_int "jc taken" 0 (Cpu.get_reg cpu 6);
  check_int "jc target" 8 (Cpu.get_reg cpu 7)

let test_rrc_rra path () =
  let cpu = exec path [ mov_imm 0b101 5;
                   Isa.One (Isa.RRA, Isa.Word, Isa.Sreg 5) ] in
  check_int "rra" 0b10 (Cpu.get_reg cpu 5);
  check_bool "rra carry" true (Cpu.get_flag cpu `C);
  let cpu = exec path [ mov_imm 0x8000 5;
                   Isa.One (Isa.RRA, Isa.Word, Isa.Sreg 5) ] in
  check_int "rra keeps sign" 0xC000 (Cpu.get_reg cpu 5);
  (* rrc shifts carry in at the top *)
  let cpu = exec path [ mov_imm 0xFFFF 5;
                   Isa.Two (Isa.ADD, Isa.Word, Isa.Simm 1, Isa.Dreg 5); (* C=1 *)
                   mov_imm 0 6;
                   Isa.One (Isa.RRC, Isa.Word, Isa.Sreg 6) ] in
  check_int "rrc carry in" 0x8000 (Cpu.get_reg cpu 6)

let test_swpb_sxt path () =
  let cpu = exec path [ mov_imm 0x1234 5;
                   Isa.One (Isa.SWPB, Isa.Word, Isa.Sreg 5) ] in
  check_int "swpb" 0x3412 (Cpu.get_reg cpu 5);
  let cpu = exec path [ mov_imm 0x0080 5;
                   Isa.One (Isa.SXT, Isa.Word, Isa.Sreg 5) ] in
  check_int "sxt" 0xFF80 (Cpu.get_reg cpu 5);
  check_bool "sxt N" true (Cpu.get_flag cpu `N)

let test_sr_writes path () =
  (* eint = bis #8, sr *)
  let cpu = exec path [ Isa.Two (Isa.BIS, Isa.Word, Isa.Simm 8, Isa.Dreg Isa.sr) ] in
  check_bool "GIE set" true (Cpu.get_flag cpu `GIE)

let test_irq path () =
  let cpu = boot path [ Isa.Two (Isa.BIS, Isa.Word, Isa.Simm 8, Isa.Dreg Isa.sr);
                   mov_imm 1 5;
                   mov_imm 2 5 ] in
  (* interrupt vector at 0xFFFE points to 0xF000 *)
  Memory.poke16 (Cpu.memory cpu) 0xFFFE 0xF000;
  ignore (Cpu.step cpu); (* eint *)
  Cpu.request_irq cpu ~vector:0xFFFE;
  let info = Cpu.step cpu in
  check_bool "irq taken" true info.Cpu.irq_taken;
  check_int "vectored" 0xF000 (Cpu.get_reg cpu Isa.pc);
  check_bool "GIE cleared" false (Cpu.get_flag cpu `GIE);
  check_int "sp dropped by 4" 0x09FC (Cpu.get_reg cpu Isa.sp)

let test_irq_masked path () =
  let cpu = boot path [ mov_imm 1 5; mov_imm 2 6 ] in
  Cpu.request_irq cpu ~vector:0xFFFE;
  let info = Cpu.step cpu in
  check_bool "masked irq not taken" false info.Cpu.irq_taken;
  check_bool "still pending" true (Cpu.irq_pending cpu)

let test_reti path () =
  let cpu = boot path [ Isa.One (Isa.PUSH, Isa.Word, Isa.Simm 0xE008); (* pc *)
                   Isa.One (Isa.PUSH, Isa.Word, Isa.Simm 0x0008); (* sr: GIE *)
                   Isa.Reti;
                   mov_imm 3 5 ] in
  for _ = 1 to 4 do ignore (Cpu.step cpu) done;
  check_bool "sr restored (GIE)" true (Cpu.get_flag cpu `GIE);
  check_int "resumed after reti" 3 (Cpu.get_reg cpu 5)

let test_cycles path () =
  (* mov r5, r6: 1 cycle; mov #0x1234, r6: 2; mov &a, &b: 6; jmp: 2 *)
  let cpu = exec path [ Isa.Two (Isa.MOV, Isa.Word, Isa.Sreg 5, Isa.Dreg 6) ] in
  check_int "reg-reg 1 cycle" 1 (Cpu.cycles cpu);
  let cpu = exec path [ mov_imm 0x1234 6 ] in
  check_int "imm-reg 2 cycles" 2 (Cpu.cycles cpu);
  let cpu = exec path [ Isa.Two (Isa.MOV, Isa.Word, Isa.Sabsolute 0x0200,
                            Isa.Dabsolute 0x0210) ] in
  check_int "mem-mem 6 cycles" 6 (Cpu.cycles cpu);
  let cpu = boot path [ Isa.Jump (Isa.JMP, 1); mov_imm 1 5 ] in
  ignore (Cpu.step cpu);
  check_int "jump 2 cycles" 2 (Cpu.cycles cpu)

let test_run_helper path () =
  let cpu = boot path [ mov_imm 1 5; mov_imm 2 6; Isa.Jump (Isa.JMP, -1) ] in
  (match Cpu.run cpu ~max_steps:100 (fun _ -> ()) with
   | Some (Cpu.Self_jump _) -> ()
   | _ -> Alcotest.fail "expected halt");
  check_int "steps" 3 (Cpu.steps cpu)

let test_step_trace_has_fetches path () =
  let cpu = boot path [ mov_imm 0x1234 5 ] in
  let info = Cpu.step cpu in
  let fetches =
    List.filter (fun a -> a.Memory.kind = Memory.Fetch) info.Cpu.accesses
  in
  match path with
  | Decoded ->
    check_int "two fetch words (opcode + ext)" 2 (List.length fetches)
  | Cached ->
    (* the documented deviation: a cached step fetches no bytes *)
    check_int "no fetch records" 0 (List.length fetches)

let test_byte_arith_flags path () =
  (* byte add: carry out of bit 7 *)
  let cpu = exec path [ mov_imm 0xFF 5;
                   Isa.Two (Isa.ADD, Isa.Byte, Isa.Simm 1, Isa.Dreg 5) ] in
  check_int "byte wrap" 0 (Cpu.get_reg cpu 5);
  check_bool "byte carry" true (Cpu.get_flag cpu `C);
  check_bool "byte zero" true (Cpu.get_flag cpu `Z);
  (* byte overflow: 0x7F + 1 *)
  let cpu = exec path [ mov_imm 0x7F 5;
                   Isa.Two (Isa.ADD, Isa.Byte, Isa.Simm 1, Isa.Dreg 5) ] in
  check_int "byte signed wrap" 0x80 (Cpu.get_reg cpu 5);
  check_bool "byte overflow" true (Cpu.get_flag cpu `V);
  check_bool "byte negative" true (Cpu.get_flag cpu `N)

let test_byte_memory_ops path () =
  (* byte ops on memory leave the sibling byte alone *)
  let cpu = boot path [ mov_imm 0x0200 5;
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Simm 0x1234, Isa.Dindexed (0, 5));
                   Isa.Two (Isa.ADD, Isa.Byte, Isa.Simm 1, Isa.Dindexed (0, 5)) ] in
  for _ = 1 to 3 do ignore (Cpu.step cpu) done;
  check_int "low byte bumped" 0x1235 (Memory.peek16 (Cpu.memory cpu) 0x0200)

let test_dadd_byte path () =
  let cpu = exec path [ mov_imm 0x45 5;
                   Isa.Two (Isa.DADD, Isa.Byte, Isa.Simm 0x38, Isa.Dreg 5) ] in
  check_int "bcd byte add 45+38=83" 0x83 (Cpu.get_reg cpu 5)

let test_sxt_memory path () =
  let cpu = boot path [ mov_imm 0x0200 5;
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Simm 0x00F0, Isa.Dindexed (0, 5));
                   Isa.One (Isa.SXT, Isa.Word, Isa.Sindexed (0, 5)) ] in
  for _ = 1 to 3 do ignore (Cpu.step cpu) done;
  check_int "sxt in memory" 0xFFF0 (Memory.peek16 (Cpu.memory cpu) 0x0200)

let test_rrc_byte path () =
  let cpu = exec path [ mov_imm 0xFFFF 5;
                   Isa.Two (Isa.ADD, Isa.Word, Isa.Simm 1, Isa.Dreg 5); (* C=1 *)
                   mov_imm 0x40 6;
                   Isa.One (Isa.RRC, Isa.Byte, Isa.Sreg 6) ] in
  check_int "byte rrc carry into bit 7" 0xA0 (Cpu.get_reg cpu 6)

let test_push_byte path () =
  let cpu = exec path [ mov_imm 0x12AB 5;
                   Isa.One (Isa.PUSH, Isa.Byte, Isa.Sreg 5) ] in
  check_int "byte pushed" 0xAB (Memory.peek8 (Cpu.memory cpu) 0x09FE);
  check_int "sp still drops a word" 0x09FE (Cpu.get_reg cpu Isa.sp)

let test_call_via_register path () =
  let target = code_base + 10 in
  let cpu = boot path [ mov_imm target 5;               (* 4 bytes *)
                   Isa.One (Isa.CALL, Isa.Word, Isa.Sreg 5);   (* 2 bytes *)
                   Isa.Jump (Isa.JMP, -1);                     (* 2 *)
                   mov_imm 0 15;                               (* 2 (CG) *)
                   (* target: *)
                   mov_imm 77 7;
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Sindirect_inc Isa.sp,
                            Isa.Dreg Isa.pc) ] in
  for _ = 1 to 4 do ignore (Cpu.step cpu) done;
  check_int "indirect call reached target" 77 (Cpu.get_reg cpu 7);
  check_int "returned" (code_base + 6) (Cpu.get_reg cpu Isa.pc)

let test_bit_byte path () =
  let cpu = exec path [ mov_imm 0x180 5;
                   Isa.Two (Isa.BIT, Isa.Byte, Isa.Simm 0x80, Isa.Dreg 5) ] in
  check_bool "byte bit sees only low byte" true (Cpu.get_flag cpu `C);
  let cpu = exec path [ mov_imm 0x100 5;
                   Isa.Two (Isa.BIT, Isa.Byte, Isa.Simm 0x80, Isa.Dreg 5) ] in
  check_bool "bit 8 invisible to byte op" true (Cpu.get_flag cpu `Z)

let test_sr_as_source path () =
  (* read SR through an instruction: C flag lands in bit 0 *)
  let cpu = exec path [ mov_imm 0xFFFF 5;
                   Isa.Two (Isa.ADD, Isa.Word, Isa.Simm 1, Isa.Dreg 5); (* C,Z *)
                   Isa.Two (Isa.MOV, Isa.Word, Isa.Sreg Isa.sr, Isa.Dreg 6) ] in
  check_int "sr readback has C and Z" 0b011 (Cpu.get_reg cpu 6 land 0b111)

let test_autoincrement_sp_byte path () =
  (* @sp+ on a byte op still increments by 2 (stack stays aligned) *)
  let cpu = boot path [ Isa.One (Isa.PUSH, Isa.Word, Isa.Simm 0x1234);
                   Isa.Two (Isa.MOV, Isa.Byte, Isa.Sindirect_inc Isa.sp,
                            Isa.Dreg 6) ] in
  ignore (Cpu.step cpu);
  ignore (Cpu.step cpu);
  check_int "byte popped" 0x34 (Cpu.get_reg cpu 6);
  check_int "sp bumped by 2" 0x0A00 (Cpu.get_reg cpu Isa.sp)

let test_format2_cycles path () =
  let cpu = exec path [ Isa.One (Isa.RRA, Isa.Word, Isa.Sreg 5) ] in
  check_int "rra reg 1 cycle" 1 (Cpu.cycles cpu);
  let cpu = exec path [ mov_imm 0x0200 5; Isa.One (Isa.PUSH, Isa.Word, Isa.Sindirect 5) ] in
  check_int "push @rn 4 cycles +2 for the mov" 6 (Cpu.cycles cpu);
  let cpu = boot path [ Isa.One (Isa.CALL, Isa.Word, Isa.Simm 0xE006);
                   Isa.Jump (Isa.JMP, -1);
                   mov_imm 1 5 ] in
  ignore (Cpu.step cpu);
  check_int "call #imm 5 cycles" 5 (Cpu.cycles cpu)

(* ---------------------------------------------------------------- *)
(* Executors against the interpreter: one step from the same random
   machine (registers, SR and every memory byte) over the byte-level
   path, over a compiled slot through [Cpu.step], and through
   [Cpu.run_unobserved] must leave the same machine behind. Register 15
   is sometimes renamed to pc, sp or sr, so the special-register forms
   the generator leaves out are drawn too; a renaming the encoder
   rejects is discarded. *)

let rename_r15 r instr =
  let g x = if x = 15 then r else x in
  let src s =
    match s with
    | Isa.Sreg x -> Isa.Sreg (g x)
    | Isa.Sindexed (o, x) -> Isa.Sindexed (o, g x)
    | Isa.Sindirect x -> Isa.Sindirect (g x)
    | Isa.Sindirect_inc x -> Isa.Sindirect_inc (g x)
    | Isa.Sabsolute _ | Isa.Simm _ -> s
  in
  let dst d =
    match d with
    | Isa.Dreg x -> Isa.Dreg (g x)
    | Isa.Dindexed (o, x) -> Isa.Dindexed (o, g x)
    | Isa.Dabsolute _ -> d
  in
  match instr with
  | Isa.Two (op, size, s, d) -> Isa.Two (op, size, src s, dst d)
  | Isa.One (op, size, s) -> Isa.One (op, size, src s)
  | Isa.Jump _ | Isa.Reti -> instr

type machine = { instr : Isa.instr; regs : int list; seed : int }

let gen_machine =
  QCheck.Gen.(
    map3
      (fun instr (r, regs) seed -> { instr = rename_r15 r instr; regs; seed })
      Test_encdec.gen_instr
      (pair (oneofl [ 0; 1; 2; 15 ]) (list_repeat 16 (int_range 0 0xFFFF)))
      (int_bound 0x3FFFFFFF))

let arb_machine =
  QCheck.make
    ~print:(fun m ->
        Format.asprintf "%a; regs %s; memory seed %d" Isa.pp m.instr
          (String.concat " " (List.map (Printf.sprintf "%04x") m.regs))
          m.seed)
    gen_machine

(* 64 KiB of pseudo-random bytes from [seed] (the 48-bit drand48 LCG) *)
let memory_image seed =
  let st = ref seed in
  String.init Memory.size_bytes (fun _ ->
      st := ((!st * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF;
      Char.chr ((!st lsr 40) land 0xFF))

let one_step image m how =
  let mem = Memory.create () in
  Memory.load_image mem ~addr:0 image;
  let bytes = Encode.encode_bytes m.instr in
  List.iteri (fun i b -> Memory.poke8 mem (code_base + i) b) bytes;
  let cpu = Cpu.create mem in
  if how <> `Decoded then
    M.Decode_cache.build ~lo:code_base ~hi:(code_base + List.length bytes - 1)
      ~get_word:(Memory.peek16 mem) ()
    |> Cpu.compile |> Cpu.attach_executors cpu;
  List.iteri (fun r v -> if r > 0 then Cpu.set_reg cpu r v) m.regs;
  Cpu.set_reg cpu Isa.pc code_base;
  (match how with
   | `Decoded | `Cached -> ignore (Cpu.step cpu : Cpu.step_info)
   | `Fused -> Cpu.run_unobserved cpu ~budget:1);
  let raw = Cpu.raw cpu in
  ( List.init 16 (Cpu.get_reg cpu),
    Memory.dump mem ~addr:0 ~len:Memory.size_bytes,
    List.filter
      (fun a -> a.Memory.kind <> Memory.Fetch)
      (Memory.step_trace mem),
    (Cpu.cycles cpu, Cpu.steps cpu),
    (raw.Cpu.raw_pc_before, raw.Cpu.raw_pc_after, raw.Cpu.raw_executed,
     raw.Cpu.raw_control, raw.Cpu.raw_cycles),
    (Cpu.halted cpu, raw.Cpu.raw_halted) )

let prop_executors_match_interpreter =
  QCheck.Test.make ~name:"executors = interpreter, one step" ~count:1000
    arb_machine
    (fun m ->
       match Encode.encode_bytes m.instr with
       | exception Encode.Unencodable _ -> QCheck.assume_fail ()
       | _ ->
         let image = memory_image m.seed in
         let reference = one_step image m `Decoded in
         one_step image m `Cached = reference
         && one_step image m `Fused = reference)

(* [Cpu.run_unobserved] returns after the first step its caller must
   see, and no earlier: a memory access, the budget, a halt, an
   interrupt, or a step no executor serves. *)
let test_run_unobserved_stops () =
  let prog =
    [ mov_imm 1 5;                                              (* e000 *)
      mov_imm 2 6;                                              (* e002 *)
      Isa.Two (Isa.ADD, Isa.Word, Isa.Sreg 5, Isa.Dreg 6);      (* e004 *)
      Isa.Two (Isa.MOV, Isa.Word, Isa.Sreg 6, Isa.Dabsolute 0x0200); (* e006 *)
      Isa.Two (Isa.BIS, Isa.Word, Isa.Simm 8, Isa.Dreg Isa.sr); (* e00a *)
      mov_imm 4 7;                                              (* e00c *)
      Isa.Jump (Isa.JMP, -1) ]                                  (* e00e *)
  in
  let cpu_with () =
    let cpu = boot Decoded prog in
    M.Decode_cache.build ~lo:code_base ~hi:(code_base + 0x0F)
      ~get_word:(Memory.peek16 (Cpu.memory cpu)) ()
    |> Cpu.compile |> Cpu.attach_executors cpu;
    cpu
  in
  let stop cpu ~budget what ~steps ~pc =
    Cpu.run_unobserved cpu ~budget;
    check_int (what ^ ": steps") steps (Cpu.steps cpu);
    check_int (what ^ ": pc of the stopping step") pc
      (Cpu.raw cpu).Cpu.raw_pc_before
  in
  let cpu = cpu_with () in
  stop cpu ~budget:100 "memory write" ~steps:4 ~pc:0xE006;
  check_int "its write is in the trace" 1 (Memory.trace (Cpu.memory cpu)).Memory.tr_len;
  check_int "r6 stored" 3 (Memory.peek16 (Cpu.memory cpu) 0x0200);
  stop cpu ~budget:100 "halt" ~steps:7 ~pc:0xE00E;
  check_bool "halted" true (Cpu.raw cpu).Cpu.raw_halted;
  stop (cpu_with ()) ~budget:2 "budget" ~steps:2 ~pc:0xE002;
  (* once GIE is set, a pending interrupt is taken by the next step *)
  let cpu = cpu_with () in
  Memory.poke16 (Cpu.memory cpu) 0xFFFE 0xE00C;
  stop cpu ~budget:100 "memory write" ~steps:4 ~pc:0xE006;
  Cpu.request_irq cpu ~vector:0xFFFE;
  stop cpu ~budget:100 "irq" ~steps:6 ~pc:0xE00C;
  check_bool "irq taken" true (Cpu.raw cpu).Cpu.raw_irq_taken;
  (* a slot dirtied by a write is served by the byte-level path *)
  let cpu = cpu_with () in
  Memory.poke16 (Cpu.memory cpu) 0xE002 (Memory.peek16 (Cpu.memory cpu) 0xE002);
  stop cpu ~budget:100 "dirty slot" ~steps:2 ~pc:0xE002;
  check_int "r6 from the byte-level path" 2 (Cpu.get_reg cpu 6)

(* A CPU indexes its executors by the memory's code-view slots, so a
   memory must never swap the table under it. *)
let test_one_cache_per_memory () =
  let cpu = boot Cached [ mov_imm 1 5; Isa.Jump (Isa.JMP, -1) ] in
  let mem = Cpu.memory cpu in
  let other =
    M.Decode_cache.build ~lo:code_base ~hi:(code_base + 5)
      ~get_word:(Memory.peek16 mem) ()
  in
  Alcotest.check_raises "a different table"
    (Invalid_argument "Memory.attach_code_cache: another cache is attached")
    (fun () -> Cpu.attach_executors cpu (Cpu.compile other));
  Cpu.step cpu |> ignore;
  check_int "the first table still serves" 1 (Cpu.get_reg cpu 5)

let cases =
  [ ("mov", test_mov);
    ("byte mov clears high", test_mov_byte_clears_high);
    ("add flags", test_add_flags);
    ("addc", test_addc);
    ("sub borrow semantics", test_sub_borrow);
    ("cmp", test_cmp_preserves_dst);
    ("and/bis/bic/xor", test_logic_ops);
    ("bit", test_bit);
    ("dadd (BCD)", test_dadd);
    ("indexed/absolute", test_indexed_and_absolute);
    ("autoincrement", test_autoincrement);
    ("call/ret stack", test_push_call_ret);
    ("push/pop", test_push_pop_byte);
    ("conditional jumps", test_jumps);
    ("signed jumps", test_signed_jumps);
    ("unsigned jumps", test_unsigned_jumps);
    ("rrc/rra", test_rrc_rra);
    ("swpb/sxt", test_swpb_sxt);
    ("sr writes", test_sr_writes);
    ("irq vectoring", test_irq);
    ("irq masked by GIE", test_irq_masked);
    ("reti", test_reti);
    ("cycle accounting", test_cycles);
    ("run until halt", test_run_helper);
    ("fetch trace", test_step_trace_has_fetches);
    ("byte arith flags", test_byte_arith_flags);
    ("byte memory ops", test_byte_memory_ops);
    ("dadd byte", test_dadd_byte);
    ("sxt on memory", test_sxt_memory);
    ("rrc byte", test_rrc_byte);
    ("push byte", test_push_byte);
    ("call via register", test_call_via_register);
    ("bit byte", test_bit_byte);
    ("sr as source", test_sr_as_source);
    ("sp byte autoincrement", test_autoincrement_sp_byte);
    ("format II cycles", test_format2_cycles) ]

let suites =
  [ ("cpu",
     List.concat_map
       (fun (tag, path) ->
          List.map
            (fun (name, f) ->
               Alcotest.test_case (name ^ " [" ^ tag ^ "]") `Quick (f path))
            cases)
       [ ("decoded", Decoded); ("cached", Cached) ]
     @ [ Alcotest.test_case "run_unobserved stops" `Quick
           test_run_unobserved_stops;
         Alcotest.test_case "one decode cache per memory" `Quick
           test_one_cache_per_memory;
         QCheck_alcotest.to_alcotest prop_executors_match_interpreter ]) ]
