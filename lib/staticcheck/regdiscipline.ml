module M = Dialed_msp430
module Isa = M.Isa
module B = Basic_block
module R = Report

type event = { ev_addr : int; ev_write : bool }

(* Every way an instruction can touch r4, the log write pointer. Address
   uses ([0(r4)], [@r4]) count as uses; the autoincrement mode also
   writes the base back. *)
let events_of_instr addr ins =
  let use = { ev_addr = addr; ev_write = false } in
  let write = { ev_addr = addr; ev_write = true } in
  let src_events s =
    match s with
    | Isa.Sreg 4 | Isa.Sindexed (_, 4) | Isa.Sindirect 4 -> [ use ]
    | Isa.Sindirect_inc 4 -> [ use; write ]
    | _ -> []
  in
  let dst_events writes d =
    match d with
    | Isa.Dreg 4 -> [ (if writes then write else use) ]
    | Isa.Dindexed (_, 4) -> [ use ]
    | _ -> []
  in
  match ins with
  | Isa.Two (op, _, src, dst) ->
    src_events src @ dst_events (Isa.writes_back op) dst
  | Isa.One ((Isa.RRC | Isa.RRA | Isa.SWPB | Isa.SXT), _, Isa.Sreg 4) ->
    [ write ]
  | Isa.One (_, _, src) -> src_events src
  | Isa.Jump _ | Isa.Reti -> []

let block_events (b : B.block) =
  List.concat_map (fun (addr, ins) -> events_of_instr addr ins) b.B.b_instrs

(* [allowed addr] holds for addresses the scan claimed as instrumentation
   (or the abort loop) — the only code permitted to touch r4. *)
let check ~cfg ~allowed =
  List.concat_map
    (fun b ->
       List.filter_map
         (fun ev ->
            if allowed ev.ev_addr then None
            else
              Some
                (R.Reserved_register_clobber
                   { at = ev.ev_addr; write = ev.ev_write }))
         (block_events b))
    (B.blocks cfg)
