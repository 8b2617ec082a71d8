module M = Dialed_msp430
module Isa = M.Isa

type terminator =
  | Fallthrough of int
  | Jump_uncond of int
  | Jump_cond of { taken : int; fallthrough : int }
  | Call of { target : int option; return_to : int }
  | Ret
  | Branch_indirect
  | Halt

type block = {
  b_start : int;
  b_last : int;
  b_instrs : (int * Isa.instr) list;
  term : terminator;
}

type t = {
  cfg_blocks : block list;
  instr_starts : (int, unit) Hashtbl.t;
  by_start : (int, block) Hashtbl.t;          (* O(1) block_at *)
  sorted : block array;                       (* by b_start, for containment *)
}

(* Control-flow classification of a single instruction. *)
type cf =
  | CF_none
  | CF_uncond of int
  | CF_cond of int * int
  | CF_call of int option * int
  | CF_ret
  | CF_indirect
  | CF_halt

let writes_back op =
  match op with
  | Isa.CMP | Isa.BIT -> false
  | Isa.MOV | Isa.ADD | Isa.ADDC | Isa.SUBC | Isa.SUB | Isa.DADD
  | Isa.BIC | Isa.BIS | Isa.XOR | Isa.AND -> true

let classify addr instr next =
  match instr with
  | Isa.Jump (Isa.JMP, off) ->
    let target = next + (2 * off) in
    if target = addr then CF_halt else CF_uncond target
  | Isa.Jump (_, off) -> CF_cond (next + (2 * off), next)
  | Isa.Two (Isa.MOV, _, Isa.Sindirect_inc r, Isa.Dreg 0) when r = Isa.sp ->
    CF_ret
  | Isa.Reti -> CF_ret
  | Isa.Two (Isa.MOV, _, Isa.Simm n, Isa.Dreg 0) -> CF_uncond n
  | Isa.Two (op, _, _, Isa.Dreg 0) when writes_back op -> CF_indirect
  | Isa.One (Isa.CALL, _, Isa.Simm n) -> CF_call (Some n, next)
  | Isa.One (Isa.CALL, _, _) -> CF_call (None, next)
  | Isa.Two _ | Isa.One _ -> CF_none

let build mem ~lo ~hi ~entry =
  (* decode the whole range *)
  let instrs, _stopped = M.Disasm.sweep mem ~lo ~hi in
  let instr_starts = Hashtbl.create 64 in
  List.iter (fun (a, _, _) -> Hashtbl.replace instr_starts a ()) instrs;
  (* leader detection *)
  let leaders = Hashtbl.create 16 in
  let mark a = if a >= lo && a <= hi then Hashtbl.replace leaders a () in
  mark entry;
  List.iter
    (fun (a, instr, next) ->
       match classify a instr next with
       | CF_none -> ()
       | CF_uncond t -> mark t; mark next
       | CF_cond (t, f) -> mark t; mark f
       | CF_call (t, ret) ->
         (match t with Some t -> mark t | None -> ());
         mark ret
       | CF_ret | CF_indirect | CF_halt -> mark next)
    instrs;
  (* block construction *)
  let blocks = ref [] in
  let current = ref [] in
  let flush term =
    match List.rev !current with
    | [] -> ()
    | ((first, _) :: _) as body ->
      let last, _ = List.nth body (List.length body - 1) in
      blocks :=
        { b_start = first; b_last = last; b_instrs = body; term } :: !blocks;
      current := []
  in
  List.iter
    (fun (a, instr, next) ->
       if !current <> [] && Hashtbl.mem leaders a then flush (Fallthrough a);
       current := (a, instr) :: !current;
       match classify a instr next with
       | CF_none -> ()
       | CF_uncond t -> flush (Jump_uncond t)
       | CF_cond (taken, fallthrough) -> flush (Jump_cond { taken; fallthrough })
       | CF_call (target, return_to) -> flush (Call { target; return_to })
       | CF_ret -> flush Ret
       | CF_indirect -> flush Branch_indirect
       | CF_halt -> flush Halt)
    instrs;
  flush Halt; (* trailing straight-line code: treat as end *)
  let cfg_blocks = List.rev !blocks in
  let by_start = Hashtbl.create (List.length cfg_blocks * 2) in
  List.iter (fun b -> Hashtbl.replace by_start b.b_start b) cfg_blocks;
  let sorted = Array.of_list cfg_blocks in
  Array.sort (fun a b -> compare a.b_start b.b_start) sorted;
  { cfg_blocks; instr_starts; by_start; sorted }

let blocks t = t.cfg_blocks

let block_at t a = Hashtbl.find_opt t.by_start a

(* binary search: rightmost block starting at or below [a] *)
let block_containing t a =
  let n = Array.length t.sorted in
  let lo = ref 0 and hi = ref (n - 1) and found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let b = t.sorted.(mid) in
    if b.b_start <= a then begin
      found := Some b;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  match !found with
  | Some b when a <= b.b_last -> Some b
  | _ -> None

let successors t a =
  match block_at t a with
  | None -> []
  | Some b ->
    (match b.term with
     | Fallthrough n -> [ n ]
     | Jump_uncond n -> [ n ]
     | Jump_cond { taken; fallthrough } -> [ taken; fallthrough ]
     | Call { target = Some target; return_to = _ } -> [ target ]
     | Call { target = None; _ } | Ret | Branch_indirect | Halt -> [])

let call_return_sites t =
  List.filter_map
    (fun b ->
       match b.term with
       | Call { return_to; _ } -> Some return_to
       | Fallthrough _ | Jump_uncond _ | Jump_cond _ | Ret | Branch_indirect
       | Halt -> None)
    t.cfg_blocks

let is_instruction_start t a = Hashtbl.mem t.instr_starts a
