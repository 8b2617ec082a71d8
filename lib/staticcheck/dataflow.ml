module Isa = Dialed_msp430.Isa
module B = Basic_block
module R = Report
module IMap = Map.Make (Int)

(* Addresses below this bound are memory-mapped peripherals: their values
   exist only on the device, so a read is replayable only when an I-Log
   append pins it. Matches the verifier's oracle window. *)
let mmio_limit = 0x0200

(* ------------------------------------------------------------------ *)
(* Taint values.

   A taint is a bounded set of witness sources: the address of the
   unattested read that produced the value, plus a bounded trail of the
   instructions it flowed through. The empty set is "replayable": the
   verifier can reproduce the value from the log or its own memory.
   Bounding both the source set and the trail makes the lattice finite —
   the cap is the widening; it can only merge witnesses, never lose the
   fact that a value is tainted. *)

type src = { site : int; via : int list }

type taint = src list

let max_sources = 8
let max_via = 8

let rec take n l =
  match l with [] -> [] | x :: r -> if n <= 0 then [] else x :: take (n - 1) r

let join_taint (a : taint) (b : taint) : taint =
  match a, b with
  | [], t | t, [] -> t
  | _ ->
    let sorted =
      List.sort
        (fun s1 s2 ->
           let c = compare s1.site s2.site in
           if c <> 0 then c
           else compare (List.length s1.via, s1.via)
                  (List.length s2.via, s2.via))
        (a @ b)
    in
    let rec dedup prev l =
      match l with
      | [] -> []
      | x :: rest ->
        if prev = Some x.site then dedup prev rest
        else x :: dedup (Some x.site) rest
    in
    take max_sources (dedup None sorted)

(* value moved through the instruction at [addr]: extend each witness *)
let step_taint addr (t : taint) : taint =
  List.map
    (fun s ->
       if List.length s.via >= max_via || s.via <> [] && List.hd (List.rev s.via) = addr
       then s
       else { s with via = s.via @ [ addr ] })
    t

let fresh_src at = [ { site = at; via = [] } ]

(* ------------------------------------------------------------------ *)
(* Abstract state: per-register taint, per-frame-slot taint (keyed by
   base register and 16-bit offset), per-static-address taint, plus two
   summaries — one for pushes / untracked stack traffic, one for stores
   through dynamic pointers. *)

type state = {
  regs : taint IMap.t;
  slots : taint IMap.t;
  statics : taint IMap.t;
  stack_sum : taint;
  mem_sum : taint;
}

let bot =
  { regs = IMap.empty; slots = IMap.empty; statics = IMap.empty;
    stack_sum = []; mem_sum = [] }

let map_get m k = Option.value ~default:[] (IMap.find_opt k m)
let map_set m k t = if t = [] then IMap.remove k m else IMap.add k t m

let slot_key r x = (r lsl 16) lor (x land 0xFFFF)

let join_map a b = IMap.union (fun _ x y -> Some (join_taint x y)) a b

let join_state a b =
  { regs = join_map a.regs b.regs;
    slots = join_map a.slots b.slots;
    statics = join_map a.statics b.statics;
    stack_sum = join_taint a.stack_sum b.stack_sum;
    mem_sum = join_taint a.mem_sum b.mem_sum }

let state_equal a b =
  IMap.equal ( = ) a.regs b.regs
  && IMap.equal ( = ) a.slots b.slots
  && IMap.equal ( = ) a.statics b.statics
  && a.stack_sum = b.stack_sum && a.mem_sum = b.mem_sum

(* ------------------------------------------------------------------ *)

let in_range a (lo, hi_incl) = a >= lo && a <= hi_incl

let ranges_overlap ~lo ~hi_excl (lo2, hi2_incl) =
  lo <= hi2_incl && lo2 < hi_excl

let run ~(config : Scan.config) ~stream ~(scan : Scan.t) ~cfg ~entry ~abort
    ~or_min ~or_max =
  let critical_ranges = Option.value ~default:[] config.Scan.selective in
  let selective = config.Scan.selective <> None in
  let is_mmio a = a < mmio_limit in
  let is_critical a = List.exists (in_range a) critical_ranges in
  let is_frame r = r = 1 || r = 6 in
  let guard_at =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (addr, rng) -> Hashtbl.replace tbl addr rng)
      scan.Scan.guards;
    fun addr -> Hashtbl.find_opt tbl addr
  in
  let findings = ref [] in
  (* the I-Log appends directly following an instruction, in order *)
  let appends_after idx =
    let rec go k acc =
      match Pattern.append stream ~abort ~or_min k with
      | Some ap ->
        go ap.Pattern.ap_next (ap.Pattern.ap_logged :: acc)
      | None -> List.rev acc
    in
    go (idx + 1) []
  in
  (* ---- per-instruction transfer function ---- *)
  (* A static read of [a] needs an I-Log append when its value is not
     replayable: always for peripherals, and for the critical set under
     the selective discipline (the full discipline logs every static read
     and the scan enforces that syntactically). Coverage means the append
     pins the very value the program goes on to use: the destination
     register of a [mov], or a re-read of the same (RAM, hence stable)
     address — a re-read of a peripheral attests nothing. *)
  let static_read st ~report ~at ~idx ~mov_dst a =
    let stored = map_get st.statics a in
    let needs = is_mmio a || (selective && is_critical a) in
    if not needs then stored
    else
      let covered =
        List.exists
          (fun logged ->
             match logged with
             | Isa.Sreg d -> mov_dst = Some d
             | Isa.Sabsolute a' ->
               (not (is_mmio a)) && a' land 0xFFFF = a
             | _ -> false)
          (appends_after idx)
      in
      if covered then stored
      else begin
        if report then
          findings := R.Critical_not_covered { at; ea = a } :: !findings;
        join_taint stored (fresh_src at)
      end
  in
  (* taint of a dynamic (pointer) read, by how the scan classified it *)
  let dynamic_read st ~report ~at mark =
    match mark with
    | Scan.Checked_read -> [] (* the F4 region's append pins the value *)
    | Scan.Guarded_read ->
      (match guard_at at with
       | Some (lo, hi_excl) ->
         let bad =
           (if lo < mmio_limit then [ "the peripheral window" ] else [])
           @ (if List.exists (ranges_overlap ~lo ~hi_excl) critical_ranges
              then [ "the critical set" ] else [])
           @ (if ranges_overlap ~lo ~hi_excl (or_min, or_max + 1)
              then [ "the log (OR)" ] else [])
         in
         if bad = [] then []
         else begin
           if report then
             findings :=
               R.Overtainted_indirect
                 { at;
                   reason =
                     Printf.sprintf "guarded range [0x%04x, 0x%04x) overlaps %s"
                       lo hi_excl (String.concat " and " bad) }
               :: !findings;
           fresh_src at
         end
       | None -> fresh_src at)
    | _ ->
      (* unchecked dynamic read: the scan already rejects it; taint it so
         flows show up in the witness too *)
      join_taint (fresh_src at) st.mem_sum
  in
  let eval_src st ~report ~at ~idx ~mark ~mov_dst s =
    match s with
    | Isa.Sreg r -> map_get st.regs r
    | Isa.Simm _ -> []
    | Isa.Sabsolute a ->
      static_read st ~report ~at ~idx ~mov_dst (a land 0xFFFF)
    | Isa.Sindexed (x, r) when is_frame r ->
      join_taint (map_get st.slots (slot_key r x))
        (if r = 1 then st.stack_sum else [])
    | Isa.Sindirect r | Isa.Sindirect_inc r when is_frame r -> st.stack_sum
    | Isa.Sindexed _ | Isa.Sindirect _ | Isa.Sindirect_inc _ ->
      dynamic_read st ~report ~at mark
  in
  let eval_dst_read st ~report ~at ~idx ~mark d =
    match d with
    | Isa.Dreg r -> map_get st.regs r
    | Isa.Dabsolute a ->
      static_read st ~report ~at ~idx ~mov_dst:None (a land 0xFFFF)
    | Isa.Dindexed (x, r) when is_frame r ->
      join_taint (map_get st.slots (slot_key r x))
        (if r = 1 then st.stack_sum else [])
    | Isa.Dindexed _ -> dynamic_read st ~report ~at mark
  in
  let assign st ~report ~at d value =
    match d with
    | Isa.Dreg 0 -> st (* pc writes are control flow, handled by the scan *)
    | Isa.Dreg r -> { st with regs = map_set st.regs r value }
    | Isa.Dabsolute a ->
      let a = a land 0xFFFF in
      if is_mmio a then begin
        (* an output action: unattested data must never drive it *)
        if report && value <> [] then
          List.iter
            (fun s ->
               findings :=
                 R.Untracked_flow_to_or
                   { at; source = s.site; trace = s.via }
                 :: !findings)
            value;
        st
      end
      else { st with statics = map_set st.statics a value }
    | Isa.Dindexed (x, r) when is_frame r ->
      { st with slots = map_set st.slots (slot_key r x) value }
    | Isa.Dindexed _ -> { st with mem_sum = join_taint st.mem_sum value }
  in
  (* the head of a recognized append writes its operand into the log at
     0(r4): any stale taint reaching it means the evidence itself carries
     an unattested value *)
  let append_sink st ~report ~at logged =
    if not report then ()
    else
      let t =
        match logged with
        | Isa.Sreg r -> map_get st.regs r
        | Isa.Sabsolute a ->
          let a = a land 0xFFFF in
          if is_mmio a then [] else map_get st.statics a
        | Isa.Sindexed (x, r) when is_frame r ->
          map_get st.slots (slot_key r x)
        | _ -> []
      in
      List.iter
        (fun s ->
           findings :=
             R.Untracked_flow_to_or { at; source = s.site; trace = s.via }
             :: !findings)
        t
  in
  let transfer st ~report (addr, ins) =
    match Stream.index_at stream addr with
    | None -> st
    | Some idx ->
      let mark = scan.Scan.marks.(idx) in
      (match mark with
       | Scan.AbortLoop -> st
       | Scan.Cf_site -> st (* transfer target; its append precedes it *)
       | Scan.Seq ->
         (match Pattern.append stream ~abort ~or_min idx with
          | Some ap ->
            append_sink st ~report ~at:addr ap.Pattern.ap_logged;
            st
          | None -> st)
       | Scan.App | Scan.Checked_store | Scan.Checked_read
       | Scan.Guarded_read ->
         let at = addr in
         (match ins with
          | Isa.Two (Isa.MOV, _, _, Isa.Dreg 0) -> st (* br/ret *)
          | Isa.Two (Isa.MOV, _, src, dst) ->
            let mov_dst =
              match src, dst with
              | Isa.Sabsolute _, Isa.Dreg d -> Some d
              | _ -> None
            in
            let v = eval_src st ~report ~at ~idx ~mark ~mov_dst src in
            assign st ~report ~at dst (step_taint at v)
          | Isa.Two (op, _, src, dst) ->
            let v_src = eval_src st ~report ~at ~idx ~mark ~mov_dst:None src in
            let v_dst = eval_dst_read st ~report ~at ~idx ~mark dst in
            let v = join_taint v_src v_dst in
            if Isa.writes_back op then
              assign st ~report ~at dst (step_taint at v)
            else st
          | Isa.One (Isa.CALL, _, _) -> st
          | Isa.One (Isa.PUSH, _, src) ->
            let v = eval_src st ~report ~at ~idx ~mark ~mov_dst:None src in
            { st with stack_sum = join_taint st.stack_sum (step_taint at v) }
          | Isa.One (_, _, src) ->
            (* rra/rrc/swpb/sxt read-modify-write their operand in place *)
            let v = eval_src st ~report ~at ~idx ~mark ~mov_dst:None src in
            let v = step_taint at v in
            (match src with
             | Isa.Sreg r -> { st with regs = map_set st.regs r v }
             | Isa.Sabsolute a ->
               let a = a land 0xFFFF in
               if is_mmio a then st
               else { st with statics = map_set st.statics a v }
             | Isa.Sindexed (x, r) when is_frame r ->
               { st with slots = map_set st.slots (slot_key r x) v }
             | Isa.Sindexed _ | Isa.Sindirect _ | Isa.Sindirect_inc _ ->
               { st with mem_sum = join_taint st.mem_sum v }
             | Isa.Simm _ -> st)
          | Isa.Jump _ | Isa.Reti -> st))
  in
  let exec_block st ~report (b : B.block) =
    List.fold_left (fun st i -> transfer st ~report i) st b.B.b_instrs
  in
  (* ---- worklist fixpoint over the recovered CFG ----
     Taint sets are bounded (the cap above is the widening), so the
     chaotic iteration terminates; return sites are fed from every Ret
     block, call-target entries from every call — context-insensitive,
     which only ever merges more. *)
  let states : (int, state) Hashtbl.t = Hashtbl.create 64 in
  let return_sites = lazy (B.call_return_sites cfg) in
  let succs (b : B.block) =
    match b.B.term with
    | Isa.Return -> Lazy.force return_sites
    | _ -> B.successors cfg b.B.b_start
  in
  let work = Queue.create () in
  let push_state addr st =
    let cur = Hashtbl.find_opt states addr in
    let joined =
      match cur with None -> st | Some old -> join_state old st
    in
    let changed =
      match cur with None -> true | Some old -> not (state_equal old joined)
    in
    if changed then begin
      Hashtbl.replace states addr joined;
      Queue.push addr work
    end
  in
  push_state entry bot;
  let budget = ref 200_000 in
  while not (Queue.is_empty work) && !budget > 0 do
    decr budget;
    let addr = Queue.pop work in
    match B.block_at cfg addr with
    | None -> ()
    | Some b ->
      let st_in = Option.value ~default:bot (Hashtbl.find_opt states addr) in
      let st_out = exec_block st_in ~report:false b in
      List.iter
        (fun s ->
           (* a return site may fall inside an already-built block; feed
              the block containing it *)
           match B.block_at cfg s with
           | Some _ -> push_state s st_out
           | None ->
             (match B.block_containing cfg s with
              | Some b' -> push_state b'.B.b_start st_out
              | None -> ()))
        (succs b)
  done;
  (* ---- reporting sweep with the converged entry states ---- *)
  Hashtbl.iter
    (fun addr st_in ->
       match B.block_at cfg addr with
       | Some b -> ignore (exec_block st_in ~report:true b)
       | None -> ())
    states;
  R.normalize !findings
