module M = Dialed_msp430
module P = M.Program
module Isa = M.Isa

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let reserved_register = 4
let or_min_symbol = "__OR_MIN"
let or_max_symbol = "__OR_MAX"
let abort_label = "__cfa_abort"

type config = {
  log_uncond_jumps : bool;
  check_stores : bool;
}

let default_config = { log_uncond_jumps = true; check_stores = true }

let r4 = P.Reg reserved_register

(* Branch to the abort loop from anywhere in the operation. Conditional
   jumps only reach +-1 KiB and instrumented operations routinely exceed
   that, so guards use the inverted-condition long form:
   [j<ok-cond> Lok; br #__cfa_abort; Lok:]. *)
let abort_unless ~fresh ok_cond =
  let ok = fresh () in
  [ P.Synth (P.Jump (ok_cond, ok));
    P.Synth (P.Two (Isa.MOV, Isa.Word, P.Imm (P.Lab abort_label), P.Reg 0));
    P.Label ok ]

(* mov <op>, 0(r4); decd r4; overflow guard (Fig. 4 lines 22-25) *)
let log_value_tagged ~fresh kind op =
  [ P.Annot (P.Log_site kind);
    P.Synth (P.Two (Isa.MOV, Isa.Word, op, P.Indexed (P.Num 0, reserved_register)));
    P.Synth (P.Two (Isa.SUB, Isa.Word, P.Imm (P.Num 2), r4));
    P.Synth (P.Two (Isa.CMP, Isa.Word, P.Imm (P.Lab or_min_symbol), r4)) ]
  @ abort_unless ~fresh Isa.JGE

let log_value ~fresh op = log_value_tagged ~fresh `Cf op

(* cmp #__OR_MAX, r4; abort unless equal (Fig. 4 lines 2-4) *)
let entry_check ~fresh =
  [ P.Annot (P.Synth_mark "entry");
    P.Synth (P.Two (Isa.CMP, Isa.Word, P.Imm (P.Lab or_max_symbol), r4)) ]
  @ abort_unless ~fresh Isa.JEQ

(* ------------------------------------------------------------------ *)
(* Contract validation.                                                *)

let sets_flags i =
  match i with
  | P.Two (op, _, _, _) ->
    (match op with
     | Isa.ADD | Isa.ADDC | Isa.SUB | Isa.SUBC | Isa.CMP | Isa.DADD
     | Isa.BIT | Isa.XOR | Isa.AND -> true
     | Isa.MOV | Isa.BIC | Isa.BIS -> false)
  | P.One (op, _, _) ->
    (match op with
     | Isa.RRA | Isa.RRC | Isa.SXT -> true
     | Isa.SWPB | Isa.PUSH | Isa.CALL -> false)
  | P.Jump _ | P.Reti -> false

(* would instrumenting this instruction insert code before it? *)
let insertion_before config i =
  match i with
  | P.Jump (Isa.JMP, _) -> config.log_uncond_jumps
  | P.Jump _ -> false (* the jcc stays first in its expansion *)
  | P.Two (Isa.MOV, _, _, P.Reg 0) -> true (* br / ret *)
  | P.One (Isa.CALL, _, _) -> true
  | P.Two (_, _, _, (P.Indexed _ : P.operand)) -> config.check_stores
  | _ -> false

let validate_no_insertion_hazard ~needs_insertion prog =
  (* For each conditional jump, no instruction that would receive inserted
     code may sit between the nearest preceding flag definition and the
     jump; forward scan keeping the instructions seen since the last flag
     definition. *)
  let since_flagdef = ref [] in
  let at_label = ref true in
  List.iter
    (fun item ->
       match item with
       | P.Label _ -> at_label := true; since_flagdef := []
       | P.Instr (P.Jump (c, target)) when c <> Isa.JMP ->
         if !at_label then
           fail "conditional jump to %s consumes flags set in another block"
             target;
         List.iter
           (fun i ->
              if needs_insertion i then
                fail
                  "flag-liveness hazard: instrumented instruction (%a) sits \
                   between a flag definition and its conditional jump"
                  P.pp_instr i)
           !since_flagdef
       | P.Instr i ->
         if sets_flags i then begin
           since_flagdef := [];
           at_label := false
         end
         else since_flagdef := i :: !since_flagdef
       | P.Synth _ | P.Word_data _ | P.Byte_data _ | P.Ascii _ | P.Space _
       | P.Align | P.Org _ | P.Equ _ | P.Annot _ | P.Comment _ -> ())
    prog

let validate_flag_discipline config prog =
  validate_no_insertion_hazard ~needs_insertion:(insertion_before config) prog

let validate_contract prog =
  if List.mem reserved_register (P.registers_used prog) then
    fail "operation uses the reserved register r4";
  List.iter
    (fun item ->
       match item with
       | P.Instr P.Reti -> fail "reti inside an attested operation"
       | P.Instr (P.Two (op, _, _, P.Reg 0))
         when op <> Isa.MOV && Isa.writes_back op ->
         fail "computed branch (%a) cannot be attested" P.pp_instr
           (P.Two (op, Isa.Word, P.Reg 0, P.Reg 0))
       | _ -> ())
    prog

(* ------------------------------------------------------------------ *)
(* Store checking (F5).                                                *)

let scratch_for i =
  let used = P.instr_registers i in
  match List.find_opt (fun r -> not (List.mem r used)) [ 15; 14; 13; 12; 11 ] with
  | Some r -> r
  | None -> fail "no scratch register available for a store check"

let store_check ~fresh x_expr base_reg scratch =
  let ok = fresh () in
  [ P.Annot (P.Synth_mark "store");
    P.Synth (P.One (Isa.PUSH, Isa.Word, P.Reg scratch));
    P.Synth (P.Two (Isa.MOV, Isa.Word, P.Reg base_reg, P.Reg scratch));
    P.Synth (P.Two (Isa.ADD, Isa.Word, P.Imm x_expr, P.Reg scratch));
    (* abort iff r4 <= ea <= OR_MAX+1  (the live log range) *)
    P.Synth (P.Two (Isa.CMP, Isa.Word, r4, P.Reg scratch));
    P.Synth (P.Jump (Isa.JNC, ok)); (* ea < r4: below the log, fine *)
    P.Synth (P.Two (Isa.CMP, Isa.Word,
                    P.Imm (P.Add (P.Lab or_max_symbol, P.Num 2)),
                    P.Reg scratch));
    P.Synth (P.Jump (Isa.JC, ok)); (* ea >= OR_MAX+2: above the log, fine *)
    P.Synth (P.Two (Isa.MOV, Isa.Word, P.Imm (P.Lab abort_label), P.Reg 0));
    P.Label ok;
    P.Synth (P.Two (Isa.MOV, Isa.Word, P.Ind_inc Isa.sp, P.Reg scratch)) ]

(* ------------------------------------------------------------------ *)
(* Selective read guard (OAT-style).                                   *)

(* Instead of logging a dynamic read's value, prove its effective
   address stays inside the declared (non-critical) object
   [lo, lo+size): the replay then reproduces the value from its own
   memory, so no log entry is needed. Aborts on escape, exactly like
   the F5 store check aborts on a log-range hit. *)
let read_guard ~fresh ~lo ~size_bytes base_reg offset scratch =
  [ P.Annot (P.Synth_mark "guard");
    P.Synth (P.One (Isa.PUSH, Isa.Word, P.Reg scratch));
    P.Synth (P.Two (Isa.MOV, Isa.Word, P.Reg base_reg, P.Reg scratch)) ]
  @ (match offset with
     | Some e ->
       [ P.Synth (P.Two (Isa.ADD, Isa.Word, P.Imm e, P.Reg scratch)) ]
     | None -> [])
  @ [ P.Synth (P.Two (Isa.CMP, Isa.Word, P.Imm lo, P.Reg scratch)) ]
  @ abort_unless ~fresh Isa.JC   (* ea >= lo *)
  @ [ P.Synth (P.Two (Isa.CMP, Isa.Word,
                      P.Imm (P.Add (lo, P.Num size_bytes)),
                      P.Reg scratch)) ]
  @ abort_unless ~fresh Isa.JNC  (* ea < lo + size *)
  @ [ P.Synth (P.Two (Isa.MOV, Isa.Word, P.Ind_inc Isa.sp, P.Reg scratch)) ]

(* ------------------------------------------------------------------ *)

let instrument ?(config = default_config) prog =
  validate_contract prog;
  validate_flag_discipline config prog;
  let fresh = P.fresh_label prog ~prefix:"__cfa_" in
  let log op = log_value ~fresh op in
  let rewrite i =
    let with_store_check body =
      if not config.check_stores then body
      else
        match i with
        | P.Two (_, _, _, P.Indexed (x, base)) ->
          let scratch = scratch_for i in
          store_check ~fresh x base scratch @ body
        | _ -> body
    in
    match i with
    | P.Jump (Isa.JMP, l) ->
      if config.log_uncond_jumps then log (P.Imm (P.Lab l)) @ [ P.Instr i ]
      else [ P.Instr i ]
    | P.Jump (c, l) ->
      let taken = fresh () and fall = fresh () in
      [ P.Instr (P.Jump (c, taken)) ]
      @ log (P.Imm (P.Lab fall))
      @ [ P.Synth (P.Jump (Isa.JMP, fall));
          P.Label taken ]
      @ log (P.Imm (P.Lab l))
      @ [ P.Synth (P.Two (Isa.MOV, Isa.Word, P.Imm (P.Lab l), P.Reg 0));
          P.Label fall ]
    | P.Two (Isa.MOV, Isa.Word, P.Ind_inc r, P.Reg 0) when r = Isa.sp ->
      (* ret: log the actual (possibly attacker-controlled) return address *)
      log (P.Ind Isa.sp) @ [ P.Instr i ]
    | P.Two (Isa.MOV, Isa.Word, src, P.Reg 0) ->
      (* br: log the destination *)
      log src @ [ P.Instr i ]
    | P.One (Isa.CALL, _, src) -> log src @ [ P.Instr i ]
    | P.Two (_, _, _, P.Indexed _) -> with_store_check [ P.Instr i ]
    | _ -> [ P.Instr i ]
  in
  (* keep any leading labels (the operation's entry symbol) in front of the
     entry check so callers still reach the check first *)
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
  prefix
  @ entry_check ~fresh
  @ P.map_instrs rewrite body
  @ [ P.Label abort_label;
      P.Annot (P.Synth_mark "abort");
      P.Synth (P.Jump (Isa.JMP, abort_label)) ]

let count_sites prog =
  List.fold_left
    (fun (cf, input) item ->
       match item with
       | P.Annot (P.Log_site `Cf) -> (cf + 1, input)
       | P.Annot (P.Log_site `Input) -> (cf, input + 1)
       | _ -> (cf, input))
    (0, 0) prog

let count_logged_sites prog = fst (count_sites prog)
