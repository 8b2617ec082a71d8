module M = Dialed_msp430
module Isa = M.Isa

type entry = {
  addr : int;
  ins : Isa.instr;
  next : int;
}

type t = {
  code : entry array;
  index_of : (int, int) Hashtbl.t;
  lo : int;
  hi : int;
  stopped : (int * int) option;
}

let of_memory mem ~lo ~hi =
  let instrs, stopped = M.Disasm.sweep mem ~lo ~hi in
  let code =
    Array.of_list
      (List.map (fun (addr, ins, next) -> { addr; ins; next }) instrs)
  in
  let index_of = Hashtbl.create (Array.length code * 2) in
  Array.iteri (fun i e -> Hashtbl.replace index_of e.addr i) code;
  { code; index_of; lo; hi; stopped }

let length t = Array.length t.code
let get t i = t.code.(i)
let index_at t addr = Hashtbl.find_opt t.index_of addr

let slice t i n =
  if i < 0 || i + n > Array.length t.code then None
  else Some (Array.to_list (Array.sub t.code i n))

(* target = address of the next instruction + 2*offset (Isa convention) *)
let jump_target e off = e.next + (2 * off)

let is_self_jump e = Isa.flow ~at:e.addr ~next:e.next e.ins = Isa.Halt

(* [mov #a, pc] — the long-form guard branch the instrumentation emits *)
let guard_target e =
  match e.ins with
  | Isa.Two (Isa.MOV, Isa.Word, Isa.Simm a, Isa.Dreg 0) -> Some a
  | _ -> None

(* Find the abort loop from the binary alone: the address [a] most often
   named by a [mov #a, pc] whose target instruction is a self-jump. A
   correctly instrumented ER names it from every guard; an uninstrumented
   one names it never. *)
let discover_abort t =
  let votes = Hashtbl.create 4 in
  Array.iter
    (fun e ->
       match guard_target e with
       | Some a when a >= t.lo && a <= t.hi ->
         (match index_at t a with
          | Some j when is_self_jump t.code.(j) ->
            Hashtbl.replace votes a
              (1 + Option.value ~default:0 (Hashtbl.find_opt votes a))
          | _ -> ())
       | _ -> ())
    t.code;
  Hashtbl.fold
    (fun a n best ->
       match best with
       | Some (_, bn) when bn >= n -> best
       | _ -> Some (a, n))
    votes None
  |> Option.map fst
