module P = Program

let is_push item =
  match item with
  | P.Instr (P.One (Isa.PUSH, Isa.Word, P.Reg r)) -> Some r
  | _ -> None

let is_pop item =
  match item with
  | P.Instr (P.Two (Isa.MOV, Isa.Word, P.Ind_inc r, P.Reg d)) when r = Isa.sp ->
    Some d
  | _ -> None

let operand_regs op =
  match op with
  | P.Reg r | P.Indexed (_, r) | P.Ind r | P.Ind_inc r -> [ r ]
  | P.Imm _ | P.Abs _ -> []

let operand_uses_sp op = List.mem Isa.sp (operand_regs op)

(* is [i] a single data instruction safe to commute with an earlier
   [mov rX, rY]? It must not touch the stack pointer, must not be control
   flow, and must not mention [avoid] (the freshly written register). *)
let safe_middle avoid i =
  match i with
  | P.Two (_, _, src, dst) ->
    (match dst with
     | P.Reg 0 -> false (* writes pc: control flow *)
     | _ ->
       (not (operand_uses_sp src)) && (not (operand_uses_sp dst))
       && (not (List.mem avoid (operand_regs src)))
       && not (List.mem avoid (operand_regs dst)))
  | P.One (Isa.PUSH, _, _) | P.One (Isa.CALL, _, _) -> false
  | P.One (_, _, src) ->
    (not (operand_uses_sp src)) && not (List.mem avoid (operand_regs src))
  | P.Jump _ | P.Reti -> false

let mov_reg x y = P.Instr (P.Two (Isa.MOV, Isa.Word, P.Reg x, P.Reg y))

(* one rewriting pass; returns the new program and the rewrite count *)
let pass prog =
  let count = ref 0 in
  let rec go items =
    match items with
    | [] -> []
    | item :: rest ->
      (match is_push item with
       | None -> item :: go rest
       | Some x ->
         (* collect annotations/comments that ride with the next instr *)
         let rec split_riders acc l =
           match l with
           | (P.Annot _ | P.Comment _) as r :: tl -> split_riders (r :: acc) tl
           | _ -> (List.rev acc, l)
         in
         let riders1, after1 = split_riders [] rest in
         (match after1 with
          | maybe_pop :: tl when riders1 = [] && is_pop maybe_pop <> None ->
            (* push rX; pop rY *)
            let y = Option.get (is_pop maybe_pop) in
            incr count;
            if x = y then go tl else mov_reg x y :: go tl
          | P.Instr m :: after2 ->
            let riders2, after3 = split_riders [] after2 in
            (match after3 with
             | maybe_pop :: tl when is_pop maybe_pop <> None ->
               let y = Option.get (is_pop maybe_pop) in
               if x <> y && safe_middle y m then begin
                 incr count;
                 (mov_reg x y :: riders1) @ (P.Instr m :: riders2) @ go tl
               end
               else item :: go rest
             | _ -> item :: go rest)
          | _ -> item :: go rest))
  in
  (go prog, !count)

let optimize prog =
  let rec fixpoint prog n =
    if n = 0 then prog
    else
      let prog', changed = pass prog in
      if changed = 0 then prog' else fixpoint prog' (n - 1)
  in
  fixpoint prog 8
