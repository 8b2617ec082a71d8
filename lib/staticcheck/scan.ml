module M = Dialed_msp430
module Isa = M.Isa
module R = Report

type config = {
  loop_bound : int option;
  require_bounded : bool;
  selective : (int * int) list option;
  dataflow : bool;
}

let default_config =
  { loop_bound = None; require_bounded = false; selective = None;
    dataflow = true }

type mark =
  | App            (* plain application instruction *)
  | Cf_site        (* control-flow instruction consumed by a CF append *)
  | Checked_store  (* store guarded by a preceding F5 check *)
  | Checked_read   (* duplicated load inside an F4 region *)
  | Guarded_read   (* read covered by a selective read guard *)
  | Seq            (* instrumentation-sequence instruction *)
  | AbortLoop

type t = {
  marks : mark array;
  appends : (int * [ `Cf | `Input ]) list;
  guards : (int * (int * int)) list;
  cf_sites : int;
  input_sites : int;
  store_checks : int;
  read_checks : int;
  read_guards : int;
  findings : R.finding list;
}

(* What a correctly placed CF append must log for this instruction. *)
let expected_logged (e : Stream.entry) =
  match e.Stream.ins with
  | Isa.Jump (Isa.JMP, off) ->
    Some (Isa.Simm (Stream.jump_target e off land 0xFFFF))
  | Isa.Two (Isa.MOV, _, Isa.Sindirect_inc 1, Isa.Dreg 0) ->
    (* ret logs the actual return address through @sp *)
    Some (Isa.Sindirect 1)
  | Isa.Two (Isa.MOV, _, src, Isa.Dreg 0) -> Some src
  | Isa.One (Isa.CALL, _, src) -> Some src
  | _ -> None

let run ~config ~stream ~abort ~or_min ~or_max =
  let n = Stream.length stream in
  let marks = Array.make (max n 1) App in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let appends = ref [] in
  let guards = ref [] in
  let cf_sites = ref 0 and input_sites = ref 0 in
  let store_checks = ref 0 and read_checks = ref 0 in
  let read_guards = ref 0 in
  let cf_start = Hashtbl.create 32 in     (* CF-append start address *)
  let input_start = Hashtbl.create 32 in  (* input-append start index *)
  let seq i j = for k = i to j - 1 do marks.(k) <- Seq done in
  let record kind (ap : Pattern.append) =
    appends := (ap.Pattern.ap_addr, kind) :: !appends;
    match kind with
    | `Cf ->
      incr cf_sites;
      Hashtbl.replace cf_start ap.Pattern.ap_addr ()
    | `Input ->
      incr input_sites;
      Hashtbl.replace input_start ap.Pattern.ap_index ()
  in
  (* ---- entry check (F1) and base-SP save + argument snapshot (F3) ---- *)
  let cursor = ref 0 in
  if n = 0 then add (R.Entry_check_missing { at = stream.Stream.lo })
  else begin
    (match Pattern.entry_check stream ~abort ~or_max 0 with
     | Some next ->
       seq 0 next;
       cursor := next
     | None ->
       add (R.Entry_check_missing
              { at = (Stream.get stream 0).Stream.addr }));
    let expected =
      Isa.Sreg 1 :: List.map (fun r -> Isa.Sreg r) [ 8; 9; 10; 11; 12; 13; 14; 15 ]
    in
    (try
       List.iteri
         (fun k want ->
            match Pattern.append stream ~abort ~or_min !cursor with
            | Some ap when ap.Pattern.ap_logged = want ->
              record `Input ap;
              seq !cursor ap.Pattern.ap_next;
              cursor := ap.Pattern.ap_next
            | Some _ | None ->
              let at =
                if !cursor < n then (Stream.get stream !cursor).Stream.addr
                else stream.Stream.hi
              in
              add (R.Base_sp_save_missing
                     { at;
                       reason =
                         Printf.sprintf
                           "entry append %d/9 missing or logs the wrong \
                            register" (k + 1) });
              raise Exit)
         expected
     with Exit -> ())
  end;
  (* ---- linear completeness scan ---- *)
  let i = ref !cursor in
  while !i < n do
    let e = Stream.get stream !i in
    if Some e.Stream.addr = abort then begin
      marks.(!i) <- AbortLoop;
      incr i
    end
    else
      match Pattern.read_check stream ~abort ~or_min ~or_max !i with
      | Some rc ->
        seq !i rc.Pattern.rc_next;
        List.iter (fun k -> marks.(k) <- Checked_read) rc.Pattern.rc_checked;
        record `Input rc.Pattern.rc_append;
        incr read_checks;
        store_checks := !store_checks + List.length rc.Pattern.rc_store_checks;
        i := rc.Pattern.rc_next
      | None ->
        (match Pattern.store_check stream ~abort ~or_max !i with
         | Some sc ->
           incr store_checks;
           if sc.Pattern.sc_next < n
              && Pattern.store_check_matches sc
                   (Stream.get stream sc.Pattern.sc_next).Stream.ins
           then begin
             seq !i sc.Pattern.sc_next;
             marks.(sc.Pattern.sc_next) <- Checked_store;
             i := sc.Pattern.sc_next + 1
           end
           else begin
             seq !i sc.Pattern.sc_next;
             add (R.Malformed_append
                    { at = e.Stream.addr;
                      reason = "store check does not guard the following \
                                store" });
             i := sc.Pattern.sc_next
           end
         | None ->
           (match Pattern.read_guard stream ~abort !i with
            | Some rg ->
              incr read_guards;
              seq !i rg.Pattern.rg_next;
              if rg.Pattern.rg_next < n
                 && Pattern.read_guard_matches rg
                      (Stream.get stream rg.Pattern.rg_next).Stream.ins
              then begin
                let at = (Stream.get stream rg.Pattern.rg_next).Stream.addr in
                marks.(rg.Pattern.rg_next) <- Guarded_read;
                guards :=
                  (at, (rg.Pattern.rg_lo, rg.Pattern.rg_hi_excl)) :: !guards;
                i := rg.Pattern.rg_next + 1
              end
              else begin
                add (R.Malformed_append
                       { at = e.Stream.addr;
                         reason = "read guard does not cover the following \
                                   read" });
                i := rg.Pattern.rg_next
              end
            | None ->
           (match Pattern.append stream ~abort ~or_min !i with
            | Some ap ->
              let nxt = ap.Pattern.ap_next in
              let consumer =
                if nxt < n then expected_logged (Stream.get stream nxt)
                else None
              in
              (match consumer with
               | Some want ->
                 record `Cf ap;
                 seq !i nxt;
                 marks.(nxt) <- Cf_site;
                 if want <> ap.Pattern.ap_logged then
                   add (R.Wrong_logged_operand { at = ap.Pattern.ap_addr });
                 i := nxt + 1
               | None ->
                 record `Input ap;
                 seq !i nxt;
                 i := nxt)
            | None ->
              if Pattern.append_head stream !i then begin
                add (R.Malformed_append
                       { at = e.Stream.addr;
                         reason = "log append sequence damaged" });
                marks.(!i) <- Seq;
                incr i
              end
              else incr i)))
  done;
  (* ---- completeness rules over what remains application code ---- *)
  (* sp- and frame-pointer (r6) based accesses are stack accesses *)
  let based r = if r = 1 || r = 6 then `Stack else `Dynamic in
  let classify_src s =
    match s with
    | Isa.Sreg _ | Isa.Simm _ -> `None
    | Isa.Sabsolute _ -> `Static
    | Isa.Sindexed (_, r) | Isa.Sindirect r | Isa.Sindirect_inc r -> based r
  in
  let classify_dst d =
    match d with
    | Isa.Dreg _ -> `None
    | Isa.Dabsolute _ -> `Static
    | Isa.Dindexed (_, r) -> based r
  in
  let read_classes ins =
    match ins with
    | Isa.Two (Isa.MOV, _, _, Isa.Dreg 0) -> []   (* br: CF data *)
    | Isa.Two (op, _, src, dst) ->
      (match classify_src src with `None -> [] | c -> [ c ])
      (* every two-op except mov reads its destination *)
      @ (match op with
         | Isa.MOV -> []
         | _ -> (match classify_dst dst with `None -> [] | c -> [ c ]))
    | Isa.One (Isa.CALL, _, _) -> []
    | Isa.One (_, _, src) ->
      (match classify_src src with `None -> [] | c -> [ c ])
    | Isa.Jump _ | Isa.Reti -> []
  in
  for idx = 0 to n - 1 do
    let e = Stream.get stream idx in
    match marks.(idx) with
    | Seq | AbortLoop | Cf_site | Checked_read -> ()
    | Guarded_read ->
      (* a guard replaces the F4 log only under the selective discipline;
         under the full discipline the read's value is still unlogged *)
      if config.selective = None then
        add (R.Unchecked_read { at = e.Stream.addr })
    | (App | Checked_store) as m ->
      (match e.Stream.ins with
       | Isa.Reti -> add (R.Reti_in_er { at = e.Stream.addr })
       | Isa.Jump (Isa.JMP, off) ->
         let t = Stream.jump_target e off in
         if t = e.Stream.addr then
           add (R.Unlogged_control_flow
                  { at = e.Stream.addr;
                    reason = "halt loop outside the abort loop" })
         else
           add (R.Unlogged_control_flow
                  { at = e.Stream.addr;
                    reason = "unconditional jump without a CF-Log append" })
       | Isa.Jump (_, off) ->
         let taken = Stream.jump_target e off and fall = e.Stream.next in
         if not (Hashtbl.mem cf_start taken && Hashtbl.mem cf_start fall)
         then
           add (R.Unlogged_control_flow
                  { at = e.Stream.addr;
                    reason = "conditional jump whose arms do not log their \
                              targets" })
       | Isa.Two (Isa.MOV, _, _, Isa.Dreg 0) ->
         add (R.Unlogged_control_flow
                { at = e.Stream.addr;
                  reason = "branch/return without a CF-Log append" })
       | Isa.Two (op, _, _, Isa.Dreg 0) when Isa.writes_back op ->
         add (R.Unlogged_control_flow
                { at = e.Stream.addr;
                  reason = "computed branch cannot be attested" })
       | Isa.One (Isa.CALL, _, _) ->
         add (R.Unlogged_control_flow
                { at = e.Stream.addr;
                  reason = "call without a CF-Log append" })
       | ins ->
         (match ins with
          | Isa.Two (op, _, _, dst) when Isa.writes_back op ->
            (match dst with
             | Isa.Dindexed _ when m = App ->
               add (R.Unchecked_store { at = e.Stream.addr })
             | Isa.Dabsolute a when a >= or_min && a <= or_max + 1 ->
               add (R.Static_store_into_or { at = e.Stream.addr; ea = a })
             | _ -> ())
          | _ -> ());
         let classes = read_classes ins in
         List.iter
           (fun c ->
              if c = `Dynamic then
                add (R.Unchecked_read { at = e.Stream.addr }))
           classes;
         let statics =
           List.length (List.filter (fun c -> c = `Static) classes)
         in
         (* under the selective discipline, static-read coverage is owned
            by the dataflow pass (non-critical globals are legitimately
            unlogged: the replay reproduces them) *)
         if statics > 0 && config.selective = None then begin
           let ok = ref true in
           let cur = ref (idx + 1) in
           for _ = 1 to statics do
             if Hashtbl.mem input_start !cur then
               cur := !cur + Pattern.append_len
             else ok := false
           done;
           if not !ok then add (R.Unlogged_input { at = e.Stream.addr })
         end)
  done;
  { marks;
    appends = List.rev !appends;
    guards = List.rev !guards;
    cf_sites = !cf_sites;
    input_sites = !input_sites;
    store_checks = !store_checks;
    read_checks = !read_checks;
    read_guards = !read_guards;
    findings = List.rev !findings }
