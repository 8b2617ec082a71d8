module Isa = Dialed_msp430.Isa

type block = {
  b_start : int;
  b_last : int;
  b_next : int;
  b_instrs : (int * Isa.instr) list;
  term : Isa.flow;
}

type t = {
  cfg_blocks : block list;
  by_start : (int, block) Hashtbl.t;          (* O(1) block_at *)
  sorted : block array;                       (* by b_start, for containment *)
}

let build (stream : Stream.t) ~entry =
  let flows =
    Array.map
      (fun (e : Stream.entry) -> Isa.flow ~at:e.addr ~next:e.next e.ins)
      stream.code
  in
  (* leader detection *)
  let leaders = Hashtbl.create 16 in
  let mark a =
    if a >= stream.lo && a <= stream.hi then Hashtbl.replace leaders a ()
  in
  mark entry;
  Array.iteri
    (fun i (e : Stream.entry) ->
       match flows.(i) with
       | Isa.Next -> ()
       | Isa.Goto t | Isa.Branch t | Isa.Call_to (Some t) ->
         mark t;
         mark e.next
       | Isa.Call_to None | Isa.Return | Isa.Computed | Isa.Halt ->
         mark e.next)
    stream.code;
  (* block construction: a block ends before a leader or at a transfer *)
  let blocks = ref [] in
  let current = ref [] in   (* the open block, last instruction first *)
  let flush term =
    match !current with
    | [] -> ()
    | (last : Stream.entry) :: _ ->
      let body = List.rev !current in
      blocks :=
        { b_start = (List.hd body).addr; b_last = last.addr;
          b_next = last.next; term;
          b_instrs = List.map (fun (e : Stream.entry) -> (e.addr, e.ins)) body }
        :: !blocks;
      current := []
  in
  Array.iteri
    (fun i (e : Stream.entry) ->
       if !current <> [] && Hashtbl.mem leaders e.addr then flush Isa.Next;
       current := e :: !current;
       if flows.(i) <> Isa.Next then flush flows.(i))
    stream.code;
  flush Isa.Halt; (* trailing straight-line code: treat as end *)
  let cfg_blocks = List.rev !blocks in
  let by_start = Hashtbl.create (List.length cfg_blocks * 2) in
  List.iter (fun b -> Hashtbl.replace by_start b.b_start b) cfg_blocks;
  let sorted = Array.of_list cfg_blocks in
  Array.sort (fun a b -> compare a.b_start b.b_start) sorted;
  { cfg_blocks; by_start; sorted }

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
     | Isa.Next -> [ b.b_next ]
     | Isa.Goto n | Isa.Call_to (Some n) -> [ n ]
     | Isa.Branch taken -> [ taken; b.b_next ]
     | Isa.Call_to None | Isa.Return | Isa.Computed | Isa.Halt -> [])

let call_return_sites t =
  List.filter_map
    (fun b ->
       match b.term with
       | Isa.Call_to _ -> Some b.b_next
       | Isa.Next | Isa.Goto _ | Isa.Branch _ | Isa.Return | Isa.Computed
       | Isa.Halt -> None)
    t.cfg_blocks
