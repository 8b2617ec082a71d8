module M = Dialed_msp430
module P = M.Program
module Isa = M.Isa
module Assemble = M.Assemble
module A = Dialed_apex
module T = Dialed_tinycfa.Instrument

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type variant = Unmodified | Cfa_only | Full

let variant_name v =
  match v with
  | Unmodified -> "unmodified"
  | Cfa_only -> "tiny-cfa"
  | Full -> "dialed"

type built = {
  variant : variant;
  program : P.t;
  image : Assemble.image;
  layout : A.Layout.t;
  expected_er : string;
  selective : bool;
  critical_ranges : (int * int) list;
}

let caller_symbol = "__caller"
let caller_ret_symbol = "__caller_ret"
let op_start_symbol = "__op_start"
let op_exit_symbol = "__op_exit"

let data_base = 0x0200
let caller_base = 0xF800

let rec expr_mentions label e =
  match e with
  | P.Num _ -> false
  | P.Lab l -> l = label
  | P.Add (a, b) | P.Sub (a, b) ->
    expr_mentions label a || expr_mentions label b

let operand_mentions label op =
  match op with
  | P.Imm e | P.Indexed (e, _) | P.Abs e -> expr_mentions label e
  | P.Reg _ | P.Ind _ | P.Ind_inc _ -> false

let item_mentions label item =
  match item with
  | P.Instr i | P.Synth i ->
    (match i with
     | P.Two (_, _, s, d) -> operand_mentions label s || operand_mentions label d
     | P.One (_, _, s) -> operand_mentions label s
     | P.Jump (_, l) -> l = label
     | P.Reti -> false)
  | P.Word_data es -> List.exists (expr_mentions label) es
  | P.Equ (_, e) -> expr_mentions label e
  | _ -> false

let mentions_label prog label = List.exists (item_mentions label) prog

let is_ret i =
  match i with
  | P.Two (Isa.MOV, Isa.Word, P.Ind_inc r, P.Reg 0) -> r = Isa.sp
  | _ -> false

let concrete_is_ret i = Isa.control i = Isa.Ret

let build ?(variant = Full) ?(dfa_config = Dfa.default_config)
    ?(cfa_config = T.default_config) ?(data = []) ?(critical = [])
    ?(or_min = A.Layout.default_or_min) ?(or_max = A.Layout.default_or_max)
    ?(stack_top = A.Layout.default_stack_top) ~op () =
  let code_base = A.Layout.default_code_base in
  (* close the body: if it targets __op_exit, provide the final ret there *)
  let op =
    if mentions_label op op_exit_symbol then begin
      if P.exists_label op op_exit_symbol then op
      else op @ [ P.Label op_exit_symbol; P.Instr (P.Two (Isa.MOV, Isa.Word, P.Ind_inc Isa.sp, P.Reg 0)) ]
    end
    else op
  in
  (match List.rev (List.filter (fun it -> match it with P.Instr _ | P.Synth _ -> true | _ -> false) op) with
   | P.Instr last :: _ when is_ret last -> ()
   | P.Synth last :: _ when is_ret last -> ()
   | _ -> fail "operation body must end in ret (or br #__op_exit)");
  let instrumented =
    match variant with
    | Unmodified -> op
    | Cfa_only -> T.instrument ~config:cfa_config op
    | Full -> T.instrument ~config:cfa_config (Dfa.instrument ~config:dfa_config op)
  in
  let jmp_self l = [ P.Label l; P.Instr (P.Jump (Isa.JMP, l)) ] in
  let program =
    [ P.Equ (T.or_min_symbol, P.Num or_min);
      P.Equ (T.or_max_symbol, P.Num or_max);
      P.Org data_base ]
    @ data
    @ [ P.Org code_base; P.Label op_start_symbol ]
    @ instrumented
    @ [ P.Align; P.Label "__op_end" ]
    @ [ P.Org caller_base;
        P.Label caller_symbol;
        P.Instr (P.Two (Isa.MOV, Isa.Word, P.Imm (P.Lab T.or_max_symbol),
                        P.Reg T.reserved_register));
        P.Instr (P.One (Isa.CALL, Isa.Word, P.Imm (P.Lab op_start_symbol))) ]
    @ jmp_self caller_ret_symbol
  in
  let image =
    try Assemble.assemble program
    with Assemble.Error msg -> fail "assembly failed: %s" msg
  in
  let er_min = Assemble.symbol image op_start_symbol in
  let er_max = Assemble.symbol image "__op_end" - 1 in
  if er_max < er_min then fail "empty operation";
  (* the caller is assembled at a fixed address: an operation reaching it
     would be overwritten in the image *)
  if er_max >= caller_base then
    fail "operation overruns the caller at 0x%04x (ER ends at 0x%04x)"
      caller_base er_max;
  (* the legal APEX exit: the last ret inside ER *)
  let er_exit =
    List.fold_left
      (fun acc (addr, instr) ->
         if addr >= er_min && addr <= er_max && concrete_is_ret instr then
           Some addr
         else acc)
      None image.Assemble.listing
  in
  let er_exit =
    match er_exit with
    | Some a -> a
    | None -> fail "operation contains no ret inside ER"
  in
  (* static F5: no absolute-address store may target OR *)
  List.iter
    (fun (addr, instr) ->
       match instr with
       | Isa.Two (op2, _, _, Isa.Dabsolute a)
         when op2 <> Isa.CMP && op2 <> Isa.BIT
              && a >= or_min && a <= or_max + 1 ->
         fail "static store into OR at 0x%04x (instruction 0x%04x)" a addr
       | _ -> ())
    image.Assemble.listing;
  (* data segment must stay clear of OR *)
  (match Assemble.segment_range image ~base:data_base with
   | Some (_, hi) when hi >= or_min ->
     fail "data segment reaches 0x%04x, colliding with OR" hi
   | Some _ | None -> ());
  let layout =
    try
      A.Layout.make ~er_min ~er_max ~er_exit ~or_min ~or_max ~stack_top
    with A.Layout.Invalid msg -> fail "layout: %s" msg
  in
  let expected_er =
    (* reconstruct ER bytes from the image segments *)
    let mem = M.Memory.create () in
    Assemble.load image mem;
    M.Memory.dump mem ~addr:er_min ~len:(er_max - er_min + 1)
  in
  let selective = variant = Full && dfa_config.Dfa.selective <> None in
  (* resolve the critical globals to the inclusive address ranges the
     static audit must see covered *)
  let critical_ranges =
    List.map
      (fun (name, size) ->
         match Assemble.symbol_opt image name with
         | Some a -> (a, a + max size 1 - 1)
         | None -> fail "critical global %s not in the image" name)
      critical
    |> List.sort compare
  in
  { variant; program; image; layout; expected_er; selective;
    critical_ranges }

let fingerprint built =
  let l = built.layout in
  Dialed_crypto.Sha256.hex
    (Dialed_crypto.Sha256.digest
       (String.concat "|"
          ([ variant_name built.variant;
             Printf.sprintf "%04x.%04x.%04x.%04x.%04x.%04x" l.A.Layout.er_min
               l.A.Layout.er_max l.A.Layout.er_exit l.A.Layout.or_min
               l.A.Layout.or_max l.A.Layout.stack_top;
             built.expected_er ]
           (* the reduced discipline is part of the firmware identity: the
              same ER bytes audited against different critical sets must
              not share a cached plan *)
           @ (if built.selective then
                [ "selective";
                  String.concat ","
                    (List.map (fun (lo, hi) -> Printf.sprintf "%04x-%04x" lo hi)
                       built.critical_ranges) ]
              else []))))

let device ?key built =
  match key with
  | Some key -> A.Device.create ~key ~image:built.image ~layout:built.layout ()
  | None -> A.Device.create ~image:built.image ~layout:built.layout ()

let code_size_bytes built =
  built.layout.A.Layout.er_max - built.layout.A.Layout.er_min + 1

let eval_expr built e =
  let rec eval e =
    match e with
    | P.Num n -> n
    | P.Lab l ->
      (match Assemble.symbol_opt built.image l with
       | Some v -> v
       | None -> fail "unknown symbol %s in annotation" l)
    | P.Add (a, b) -> eval a + eval b
    | P.Sub (a, b) -> eval a - eval b
  in
  eval e
