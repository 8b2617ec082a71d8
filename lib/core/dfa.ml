module M = Dialed_msp430
module P = M.Program
module Isa = M.Isa
module T = Dialed_tinycfa.Instrument

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type selective = {
  critical : string list;
}

type config = {
  static_fast_path : bool;
  trust_frame_reads : bool;
  selective : selective option;
}

let default_config =
  { static_fast_path = true; trust_frame_reads = true; selective = None }

let frame_pointer = 6 (* r6: MiniC's frame pointer *)
let r4 = T.reserved_register

let log_input ~fresh op = T.log_value_tagged ~fresh `Input op

(* ------------------------------------------------------------------ *)
(* Classification of memory-read operands (Definition 1).              *)

type read_class =
  | No_read                       (* register / immediate *)
  | In_stack                      (* statically within [SP, base] *)
  | Static_input of P.operand     (* statically outside the stack *)
  | Dynamic of { base : Isa.reg; offset : P.expr option; autoinc : bool }

let classify config op =
  match op with
  | P.Reg _ | P.Imm _ -> No_read
  | P.Abs e ->
    if config.static_fast_path then Static_input (P.Abs e)
    else Dynamic { base = -1; offset = Some e; autoinc = false }
  | P.Indexed (x, r) ->
    if r = Isa.sp || (config.trust_frame_reads && r = frame_pointer) then
      In_stack
    else Dynamic { base = r; offset = Some x; autoinc = false }
  | P.Ind r ->
    if r = Isa.sp || (config.trust_frame_reads && r = frame_pointer) then
      In_stack
    else Dynamic { base = r; offset = None; autoinc = false }
  | P.Ind_inc r ->
    if r = Isa.sp || (config.trust_frame_reads && r = frame_pointer) then
      In_stack
    else Dynamic { base = r; offset = None; autoinc = true }

let op_reads_dst two_op =
  match two_op with
  | Isa.MOV -> false
  | Isa.ADD | Isa.ADDC | Isa.SUBC | Isa.SUB | Isa.CMP | Isa.DADD
  | Isa.BIT | Isa.BIC | Isa.BIS | Isa.XOR | Isa.AND -> true

(* memory-read operands of an instruction, with their role *)
let read_operands config i =
  match i with
  | P.Two (Isa.MOV, _, src, P.Reg 0) ->
    (* br: control-flow data, logged by Tiny-CFA *)
    ignore src;
    []
  | P.Two (op, _, src, dst) ->
    let srcs =
      match classify config src with No_read | In_stack -> [] | c -> [ (`Src, c) ]
    in
    let dsts =
      if op_reads_dst op then
        match classify config dst with
        | No_read | In_stack -> []
        | c -> [ (`Dst, c) ]
      else []
    in
    srcs @ dsts
  | P.One (Isa.CALL, _, _) -> [] (* destination logged by Tiny-CFA *)
  | P.One (_, _, src) ->
    (match classify config src with No_read | In_stack -> [] | c -> [ (`Src, c) ])
  | P.Jump _ | P.Reti -> []

(* ------------------------------------------------------------------ *)
(* Emission.                                                           *)

(* Fig. 5 range check: computes the effective address into [scratch] and
   branches to a fresh in-stack label when [SP <= ea <= mem[OR_MAX]].
   Falls through when the address is outside the stack (a data input). *)
let range_check ~in_lbl ~out_lbl scratch base offset =
  let ea_setup =
    (if base >= 0 then
       [ P.Synth (P.Two (Isa.MOV, Isa.Word, P.Reg base, P.Reg scratch)) ]
     else [])
    @ (match offset with
       | Some e when base >= 0 ->
         [ P.Synth (P.Two (Isa.ADD, Isa.Word, P.Imm e, P.Reg scratch)) ]
       | Some e ->
         [ P.Synth (P.Two (Isa.MOV, Isa.Word, P.Imm e, P.Reg scratch)) ]
       | None -> [])
  in
  ea_setup
  @ [ P.Synth (P.Two (Isa.CMP, Isa.Word, P.Abs (P.Lab T.or_max_symbol),
                      P.Reg scratch));
      P.Synth (P.Jump (Isa.JEQ, in_lbl));  (* ea = base of stack: inside *)
      P.Synth (P.Jump (Isa.JC, out_lbl));  (* ea > base: outside *)
      P.Synth (P.Two (Isa.CMP, Isa.Word, P.Reg Isa.sp, P.Reg scratch));
      P.Synth (P.Jump (Isa.JC, in_lbl));   (* sp <= ea <= base: inside *)
      P.Label out_lbl ]

let scratch_for i =
  let used = P.instr_registers i in
  match List.find_opt (fun r -> not (List.mem r used)) [ 15; 14; 13; 12; 11 ] with
  | Some r -> r
  | None -> fail "no scratch register for a read check (%a)" P.pp_instr i

(* mov <mem>, rN with a dynamic address: rN is dead before the load, so it
   serves as the check scratch; the load is duplicated on the two
   mutually-exclusive paths. *)
let dynamic_mov_load ~fresh i dst_reg base offset =
  let in_lbl = fresh () and out_lbl = fresh () and done_lbl = fresh () in
  P.Annot (P.Synth_mark "read")
  :: range_check ~in_lbl ~out_lbl dst_reg base offset
  @ [ P.Instr i ]
  @ log_input ~fresh (P.Reg dst_reg)
  @ [ P.Synth (P.Jump (Isa.JMP, done_lbl));
      P.Label in_lbl;
      P.Instr i;
      P.Label done_lbl ]

(* general case: check with a pushed scratch, then re-read the operand to
   log it (RAM-safe; MiniC never applies arithmetic to peripherals) *)
let dynamic_general ~fresh i operand base offset =
  let in_lbl = fresh () and out_lbl = fresh () and done_lbl = fresh () in
  let scratch = scratch_for i in
  [ P.Annot (P.Synth_mark "read");
    P.Synth (P.One (Isa.PUSH, Isa.Word, P.Reg scratch)) ]
  @ range_check ~in_lbl ~out_lbl scratch base offset
  @ [ P.Synth (P.Two (Isa.MOV, Isa.Word, P.Ind_inc Isa.sp, P.Reg scratch));
      P.Instr i ]
  @ log_input ~fresh operand
  @ [ P.Synth (P.Jump (Isa.JMP, done_lbl));
      P.Label in_lbl;
      P.Synth (P.Two (Isa.MOV, Isa.Word, P.Ind_inc Isa.sp, P.Reg scratch));
      P.Instr i;
      P.Label done_lbl ]

let operand_of_role i role =
  match role, i with
  | `Src, (P.Two (_, _, src, _) | P.One (_, _, src)) -> src
  | `Dst, P.Two (_, _, _, dst) -> dst
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Selective attestation (OAT-style).                                  *)

(* Does this static read still need a log entry under the selective
   discipline? Named globals: only when declared critical (the verifier's
   replay reproduces non-critical RAM from its own memory). Numeric
   absolute addresses are memory-mapped peripherals in generated code:
   their values exist only on the device, so they are always logged. *)
let selective_logs_static sel op =
  match op with
  | P.Abs (P.Lab name) -> List.mem name sel.critical
  | _ -> true

(* A dynamic read may drop its F4 log when the compiler names the object
   it stays inside ([Array_load] annotation) and that object is not
   critical: a read guard proves the address at run time, and the static
   dataflow audit re-proves from the binary that the guarded range avoids
   MMIO, the critical set and the log. *)
let selective_guard sel annot =
  match annot with
  | Some (P.Array_load { array_name; base; size_bytes })
    when not (List.mem array_name sel.critical) ->
    Some (base, size_bytes)
  | _ -> None

let emit_guard ~fresh i lo size_bytes base offset =
  let scratch = scratch_for i in
  T.read_guard ~fresh ~lo ~size_bytes base offset scratch @ [ P.Instr i ]

let rewrite config ~fresh annot i =
  match read_operands config i with
  | [] -> [ P.Instr i ]
  | [ (role, cls) ] ->
    (match cls, i with
     | Static_input op, P.Two (Isa.MOV, _, _, P.Reg rn) when rn <> 0 ->
       (match config.selective with
        | Some sel when not (selective_logs_static sel op) -> [ P.Instr i ]
        | Some _ | None ->
          (* the loaded value sits in the register: log it directly, never
             re-reading the (possibly side-effecting) peripheral *)
          P.Instr i :: log_input ~fresh (P.Reg rn))
     | Static_input op, _ ->
       (match config.selective with
        | Some sel when not (selective_logs_static sel op) -> [ P.Instr i ]
        | Some _ | None -> P.Instr i :: log_input ~fresh op)
     | Dynamic { base; offset; autoinc }, P.Two (Isa.MOV, _, _, P.Reg rn)
       when rn <> 0 ->
       if rn = base then
         fail "load into its own address register cannot be attested (%a)"
           P.pp_instr i
       else
         let offset = if autoinc then None else offset in
         (match Option.bind config.selective (fun s -> selective_guard s annot)
          with
          | Some (lo, size_bytes) when not autoinc ->
            emit_guard ~fresh i lo size_bytes base offset
          | _ -> dynamic_mov_load ~fresh i rn base offset)
     | Dynamic { autoinc = true; _ }, _ ->
       fail "auto-increment read cannot be attested here (%a)" P.pp_instr i
     | Dynamic { base; offset; _ }, _ ->
       (match Option.bind config.selective (fun s -> selective_guard s annot)
        with
        | Some (lo, size_bytes) -> emit_guard ~fresh i lo size_bytes base offset
        | None -> dynamic_general ~fresh i (operand_of_role i role) base offset)
     | (No_read | In_stack), _ -> assert false)
  | multi ->
    (* two memory reads in one instruction: support the all-static case *)
    if List.for_all (fun (_, c) -> match c with Static_input _ -> true | _ -> false)
        multi
    then
      P.Instr i
      :: List.concat_map
        (fun (_, c) ->
           match c with
           | Static_input op ->
             (match config.selective with
              | Some sel when not (selective_logs_static sel op) -> []
              | Some _ | None -> log_input ~fresh op)
           | _ -> [])
        multi
    else
      fail "instruction with multiple dynamic memory reads (%a)" P.pp_instr i

(* ------------------------------------------------------------------ *)
(* Flag-liveness validation (inserts both before and after reads).     *)

let validate config prog =
  if List.mem r4 (P.registers_used prog) then
    fail "operation uses the reserved register r4";
  let instruments i = read_operands config i <> [] in
  T.validate_no_insertion_hazard ~needs_insertion:instruments prog;
  (* additionally: a flag-setting instruction that itself gets a log
     appended after it must not immediately feed a conditional jump *)
  let rec scan items =
    match items with
    | P.Instr i :: rest when instruments i ->
      let rec next_is_condjump l =
        match l with
        | P.Annot _ :: tl | P.Comment _ :: tl -> next_is_condjump tl
        | P.Instr (P.Jump (c, _)) :: _ -> c <> Isa.JMP
        | _ -> false
      in
      if next_is_condjump rest then
        fail "flag-liveness hazard: instrumented read (%a) feeds a \
              conditional jump" P.pp_instr i;
      scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan prog

(* ------------------------------------------------------------------ *)

(* Like [P.map_instrs], but hands the rewrite the [Array_load] annotation
   bound to each instruction — the object name and bounds selective mode
   needs to emit a read guard. Annotations themselves stay in place. *)
let map_instrs_annot f items =
  let pending = ref None in
  List.concat_map
    (fun item ->
       match item with
       | P.Annot (P.Array_load _ as a) ->
         pending := Some a;
         [ item ]
       | P.Instr i ->
         let a = !pending in
         pending := None;
         f a i
       | P.Annot _ | P.Label _ | P.Comment _ -> [ item ]
       | _ ->
         pending := None;
         [ item ])
    items

(* F3: log the base stack pointer (lands in the word at OR_MAX, where F4's
   range checks read it back) followed by all argument registers r8..r15. *)
let entry_logging ~fresh =
  log_input ~fresh (P.Reg Isa.sp)
  @ List.concat_map (fun r -> log_input ~fresh (P.Reg r))
      [ 8; 9; 10; 11; 12; 13; 14; 15 ]

let instrument ?(config = default_config) prog =
  validate config prog;
  List.iter
    (fun item ->
       match item with
       | P.Instr P.Reti -> fail "reti inside an attested operation"
       | _ -> ())
    prog;
  let fresh = P.fresh_label prog ~prefix:"__dfa_" in
  let is_prefix_item item =
    (* annotations bind to the next instruction: they must stay in the
       body so inserted entry code does not capture them *)
    match item with
    | P.Label _ | P.Comment _ | P.Equ _ -> true
    | _ -> false
  in
  let rec split_prefix acc items =
    match items with
    | item :: rest when is_prefix_item item -> split_prefix (item :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let prefix, body = split_prefix [] prog in
  prefix @ entry_logging ~fresh @ map_instrs_annot (rewrite config ~fresh) body

let count_input_sites prog =
  let rec count acc items =
    match items with
    | P.Annot (P.Log_site `Input) :: rest -> count (acc + 1) rest
    | _ :: rest -> count acc rest
    | [] -> acc
  in
  count 0 prog
