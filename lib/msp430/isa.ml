type reg = int

let pc = 0
let sp = 1
let sr = 2
let cg = 3

let reg_name r =
  match r with
  | 0 -> "pc"
  | 1 -> "sp"
  | 2 -> "sr"
  | 3 -> "cg"
  | r -> Printf.sprintf "r%d" r

let reg_of_name s =
  match String.lowercase_ascii s with
  | "pc" -> Some 0
  | "sp" -> Some 1
  | "sr" -> Some 2
  | "cg" -> Some 3
  | s ->
    if String.length s >= 2 && s.[0] = 'r' then
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some n when n >= 0 && n <= 15 -> Some n
      | Some _ | None -> None
    else None

type size = Byte | Word

type src =
  | Sreg of reg
  | Sindexed of int * reg
  | Sabsolute of int
  | Sindirect of reg
  | Sindirect_inc of reg
  | Simm of int

type dst =
  | Dreg of reg
  | Dindexed of int * reg
  | Dabsolute of int

type two_op =
  | MOV | ADD | ADDC | SUBC | SUB | CMP
  | DADD | BIT | BIC | BIS | XOR | AND

type one_op = RRC | SWPB | RRA | SXT | PUSH | CALL

type cond = JNE | JEQ | JNC | JC | JN | JGE | JL | JMP

type instr =
  | Two of two_op * size * src * dst
  | One of one_op * size * src
  | Jump of cond * int
  | Reti

let two_op_name op =
  match op with
  | MOV -> "mov" | ADD -> "add" | ADDC -> "addc" | SUBC -> "subc"
  | SUB -> "sub" | CMP -> "cmp" | DADD -> "dadd" | BIT -> "bit"
  | BIC -> "bic" | BIS -> "bis" | XOR -> "xor" | AND -> "and"

let one_op_name op =
  match op with
  | RRC -> "rrc" | SWPB -> "swpb" | RRA -> "rra"
  | SXT -> "sxt" | PUSH -> "push" | CALL -> "call"

let cond_name c =
  match c with
  | JNE -> "jne" | JEQ -> "jeq" | JNC -> "jnc" | JC -> "jc"
  | JN -> "jn" | JGE -> "jge" | JL -> "jl" | JMP -> "jmp"

(* Immediates the constant generator provides without an extension word. *)
let cg_immediate n =
  match n land 0xFFFF with
  | 0 | 1 | 2 | 4 | 8 | 0xFFFF -> true
  | _ -> false

let src_extension_words s =
  match s with
  | Sreg _ | Sindirect _ | Sindirect_inc _ -> 0
  | Sindexed _ | Sabsolute _ -> 1
  | Simm n -> if cg_immediate n then 0 else 1

let dst_extension_words d =
  match d with
  | Dreg _ -> 0
  | Dindexed _ | Dabsolute _ -> 1

let instr_size_bytes i =
  match i with
  | Two (_, _, s, d) -> 2 * (1 + src_extension_words s + dst_extension_words d)
  | One (_, _, s) -> 2 * (1 + src_extension_words s)
  | Jump _ | Reti -> 2

type control = Plain | Call | Ret

let control i =
  match i with
  | One (CALL, _, _) -> Call
  | Two (MOV, Word, Sindirect_inc r, Dreg 0) when r = sp -> Ret
  | Two _ | One _ | Jump _ | Reti -> Plain

let writes_back op =
  match op with
  | CMP | BIT -> false
  | MOV | ADD | ADDC | SUBC | SUB | DADD | BIC | BIS | XOR | AND -> true

type flow =
  | Next
  | Goto of int
  | Branch of int
  | Call_to of int option
  | Return
  | Computed
  | Halt

let flow ~at ~next i =
  match i with
  | Jump (JMP, off) ->
    let target = next + (2 * off) in
    if target = at then Halt else Goto target
  | Jump (_, off) -> Branch (next + (2 * off))
  | Two (MOV, _, Sindirect_inc r, Dreg 0) when r = sp -> Return
  | Reti -> Return
  | Two (MOV, _, Simm n, Dreg 0) -> Goto n
  | Two (op, _, _, Dreg 0) when writes_back op -> Computed
  | One (CALL, _, Simm n) -> Call_to (Some n)
  | One (CALL, _, _) -> Call_to None
  | Two _ | One _ -> Next

(* Format-I cycle counts, Table 3-16 of the MSP430x1xx user's guide. The
   destination-is-PC column applies to mov/add/... with Dreg pc. *)
let two_cycles src dst =
  let dst_is_pc = match dst with Dreg r -> r = pc | Dindexed _ | Dabsolute _ -> false in
  (* CG-provided immediates need no fetch and cost the same as a register
     source; other sources follow the table's rows. *)
  let src_class =
    match src with
    | Sreg _ -> `Register
    | Simm n -> if cg_immediate n then `Register else `Immediate
    | Sindirect _ -> `Indirect
    | Sindirect_inc _ -> `Indirect_inc
    | Sindexed _ | Sabsolute _ -> `Indexed
  in
  match src_class, dst with
  | `Register, Dreg _ -> if dst_is_pc then 2 else 1
  | `Register, (Dindexed _ | Dabsolute _) -> 4
  | `Immediate, Dreg _ -> if dst_is_pc then 3 else 2
  | `Immediate, (Dindexed _ | Dabsolute _) -> 5
  | `Indirect, Dreg _ -> 2
  | `Indirect, (Dindexed _ | Dabsolute _) -> 5
  | `Indirect_inc, Dreg _ -> if dst_is_pc then 3 else 2
  | `Indirect_inc, (Dindexed _ | Dabsolute _) -> 5
  | `Indexed, Dreg _ -> 3
  | `Indexed, (Dindexed _ | Dabsolute _) -> 6

(* Format-II cycle counts, Table 3-15. *)
let one_cycles op src =
  match op, src with
  | (RRC | RRA | SWPB | SXT), Sreg _ -> 1
  | (RRC | RRA | SWPB | SXT), (Sindirect _ | Sindirect_inc _) -> 3
  | (RRC | RRA | SWPB | SXT), (Sindexed _ | Sabsolute _) -> 4
  | (RRC | RRA | SWPB | SXT), Simm _ -> 2 (* not meaningful; defensive *)
  | PUSH, Sreg _ -> 3
  | PUSH, Sindirect _ -> 4
  | PUSH, Sindirect_inc _ -> 5
  | PUSH, Simm n -> if cg_immediate n then 3 else 4
  | PUSH, (Sindexed _ | Sabsolute _) -> 5
  | CALL, Sreg _ -> 4
  | CALL, Sindirect _ -> 4
  | CALL, Sindirect_inc _ -> 5
  | CALL, Simm _ -> 5
  | CALL, Sindexed _ -> 5
  | CALL, Sabsolute _ -> 6

let cycles i =
  match i with
  | Two (_, _, s, d) -> two_cycles s d
  | One (op, _, s) -> one_cycles op s
  | Jump _ -> 2
  | Reti -> 5

let pp_src ppf s =
  match s with
  | Sreg r -> Format.pp_print_string ppf (reg_name r)
  | Sindexed (x, r) -> Format.fprintf ppf "%d(%s)" x (reg_name r)
  | Sabsolute a -> Format.fprintf ppf "&0x%04x" (a land 0xFFFF)
  | Sindirect r -> Format.fprintf ppf "@%s" (reg_name r)
  | Sindirect_inc r -> Format.fprintf ppf "@%s+" (reg_name r)
  | Simm n ->
    (* small values read best in decimal, address-like ones in hex *)
    let s = Word.signed16 n in
    if s >= -256 && s <= 256 then Format.fprintf ppf "#%d" s
    else Format.fprintf ppf "#0x%04x" (Word.mask16 n)

let pp_dst ppf d =
  match d with
  | Dreg r -> Format.pp_print_string ppf (reg_name r)
  | Dindexed (x, r) -> Format.fprintf ppf "%d(%s)" x (reg_name r)
  | Dabsolute a -> Format.fprintf ppf "&0x%04x" (a land 0xFFFF)

let suffix size = match size with Byte -> ".b" | Word -> ""

let pp ppf i =
  match i with
  | Two (op, size, s, d) ->
    Format.fprintf ppf "%s%s %a, %a" (two_op_name op) (suffix size)
      pp_src s pp_dst d
  | One (op, size, s) ->
    Format.fprintf ppf "%s%s %a" (one_op_name op) (suffix size) pp_src s
  | Jump (c, off) -> Format.fprintf ppf "%s %+d" (cond_name c) (2 * off)
  | Reti -> Format.pp_print_string ppf "reti"
