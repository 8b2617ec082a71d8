module M = Dialed_msp430
module Memory = M.Memory
module Isa = M.Isa
module P = M.Program
module Assemble = M.Assemble
module A = Dialed_apex

type error =
  | Bad_token of string
  | Illegal_target of { at : int; expected : int; got : int }
  | Bad_return of { at : int; expected : int; got : int }
  | Not_code of int
  | Ambiguous of int
  | Log_exhausted of int
  | Malformed of string

let pp_error ppf e =
  match e with
  | Bad_token msg -> Format.fprintf ppf "token rejected: %s" msg
  | Illegal_target { at; expected; got } ->
    Format.fprintf ppf
      "illegal control-flow edge at 0x%04x: logged 0x%04x, static target \
       0x%04x"
      at got expected
  | Bad_return { at; expected; got } ->
    Format.fprintf ppf
      "return at 0x%04x to 0x%04x, shadow stack expects 0x%04x" at got
      expected
  | Not_code a -> Format.fprintf ppf "destination 0x%04x is not code" a
  | Ambiguous a -> Format.fprintf ppf "unresolvable conditional at 0x%04x" a
  | Log_exhausted a ->
    Format.fprintf ppf "CF-Log exhausted while walking at 0x%04x" a
  | Malformed msg -> Format.fprintf ppf "malformed instrumentation: %s" msg

type outcome = {
  ok : bool;
  error : error option;
  path_length : int;
  dests : int list;
}

exception Stop of error

(* An instruction of the decoded binary: a log site's push into the
   CF-Log, or else its effect on the pc. Both carry the next address. *)
type icls =
  | Log_push of int option * int     (* static pushed value, next *)
  | Flow of Isa.flow * int

let classify ~is_log_site addr instr next =
  match instr with
  | Isa.Two (Isa.MOV, Isa.Word, src, Isa.Dindexed (0, r))
    when r = Dialed_tinycfa.Instrument.reserved_register && is_log_site addr ->
    let static = match src with Isa.Simm v -> Some v | _ -> None in
    Log_push (static, next)
  | _ -> Flow (Isa.flow ~at:addr ~next instr, next)

let verify ?(key = A.Device.default_key) built report =
  match
    A.Pox.verify ~key ~expected_er:built.Pipeline.expected_er report
  with
  | Error msg ->
    { ok = false; error = Some (Bad_token msg); path_length = 0; dests = [] }
  | Ok () ->
    let layout = built.Pipeline.layout in
    let mem = Memory.create () in
    Assemble.load built.Pipeline.image mem;
    let log_sites = Hashtbl.create 64 in
    List.iter
      (fun (addr, annots) ->
         if List.exists (fun a -> match a with P.Log_site _ -> true | _ -> false)
             annots
         then Hashtbl.replace log_sites addr ())
      built.Pipeline.image.Assemble.annots;
    let is_log_site a = Hashtbl.mem log_sites a in
    (* decode the ER once *)
    let code = Hashtbl.create 256 in
    List.iter
      (fun (addr, instr, next) ->
         Hashtbl.replace code addr (classify ~is_log_site addr instr next))
      (fst
         (M.Disasm.sweep mem ~lo:layout.A.Layout.er_min
            ~hi:layout.A.Layout.er_max));
    let cls_at addr =
      match Hashtbl.find_opt code addr with
      | Some c -> c
      | None -> raise (Stop (Not_code addr))
    in
    let oplog = Oplog.of_report report in
    let capacity = Oplog.capacity_entries oplog in
    let cursor = ref 0 in
    let dests = ref [] in
    let consume at =
      if !cursor >= capacity then raise (Stop (Log_exhausted at));
      let v = Oplog.entry oplog !cursor in
      incr cursor;
      v
    in
    (* does this arm reach only the abort loop (recursively)? *)
    let rec arm_dead fuel addr =
      if fuel = 0 then false
      else
        match cls_at addr with
        | Flow (Isa.Next, next) -> arm_dead (fuel - 1) next
        | Flow (Isa.Goto t, _) -> arm_dead (fuel - 1) t
        | Flow (Isa.Halt, _) -> true
        | Flow (Isa.Branch t, f) ->
          arm_dead (fuel - 1) t && arm_dead (fuel - 1) f
        | Log_push _ | Flow ((Isa.Call_to _ | Isa.Return | Isa.Computed), _) ->
          false
    in
    (* can this arm's first reachable log site push the value [d]?
       Guard paths between here and the log site carry no walk state, so
       any accepting arm is a sound continuation. *)
    let rec arm_accepts fuel addr d =
      if fuel = 0 then false
      else
        match cls_at addr with
        | Flow (Isa.Next, next) -> arm_accepts (fuel - 1) next d
        | Flow (Isa.Goto t, _) -> arm_accepts (fuel - 1) t d
        | Flow (Isa.Halt, _) -> false
        | Log_push (Some v, _) -> v = d
        | Log_push (None, _) -> true (* dynamic push matches any entry *)
        | Flow (Isa.Branch t, f) ->
          arm_accepts (fuel - 1) t d || arm_accepts (fuel - 1) f d
        | Flow ((Isa.Call_to _ | Isa.Return | Isa.Computed), _) -> false
    in
    (* after consuming [d] at a log site, walk the guard to the transfer
       this log describes and follow it *)
    let rec resolve fuel at d shadow =
      if fuel = 0 then raise (Stop (Malformed "no transfer after log site"));
      match cls_at at with
      | Flow (Isa.Next, next) -> resolve (fuel - 1) next d shadow
      | Flow (Isa.Branch t, f) ->
        if arm_dead 64 t then resolve (fuel - 1) f d shadow
        else if arm_dead 64 f then resolve (fuel - 1) t d shadow
        else raise (Stop (Ambiguous at))
      | Flow (Isa.Goto t, _) ->
        if d <> t then raise (Stop (Illegal_target { at; expected = t; got = d }));
        `Goto (d, shadow)
      | Flow (Isa.Computed, _) -> `Goto (d, shadow)
      | Flow (Isa.Return, _) ->
        (match shadow with
         | [] -> `Done
         | expected :: rest ->
           if d <> expected then
             raise (Stop (Bad_return { at; expected; got = d }));
           `Goto (d, rest))
      | Flow (Isa.Call_to (Some t), return_to) ->
        if d <> t then raise (Stop (Illegal_target { at; expected = t; got = d }));
        `Goto (d, return_to :: shadow)
      | Flow (Isa.Call_to None, return_to) -> `Goto (d, return_to :: shadow)
      | Log_push _ -> raise (Stop (Malformed "log site before its transfer"))
      | Flow (Isa.Halt, _) ->
        raise (Stop (Malformed "abort loop inside a guard"))
    in
    let rec walk fuel at shadow =
      if fuel = 0 then raise (Stop (Malformed "walk did not terminate"))
      else
        match cls_at at with
        | Flow (Isa.Next, next) -> walk (fuel - 1) next shadow
        | Flow (Isa.Goto t, _) -> walk (fuel - 1) t shadow
        | Flow (Isa.Halt, _) ->
          raise (Stop (Malformed "reached abort with EXEC = 1"))
        | Log_push (_, next) ->
          let d = consume at in
          dests := d :: !dests;
          (match resolve 64 next d shadow with
           | `Done -> ()
           | `Goto (p, shadow) ->
             if not (Hashtbl.mem code p) then raise (Stop (Not_code p));
             walk (fuel - 1) p shadow)
        | Flow (Isa.Branch t, f) ->
          (* unlogged conditional: a guard or check the instrumentation
             inserted, or a rewritten source conditional whose arms each
             begin with a log push. The next (unconsumed) entry names the
             outcome; guard arms leading to the abort loop are dead in any
             EXEC = 1 transcript. *)
          if arm_dead 128 t then walk (fuel - 1) f shadow
          else if arm_dead 128 f then walk (fuel - 1) t shadow
          else begin
            if !cursor >= capacity then raise (Stop (Log_exhausted at));
            let d = Oplog.entry oplog !cursor in
            if arm_accepts 128 t d then walk (fuel - 1) t shadow
            else if arm_accepts 128 f d then walk (fuel - 1) f shadow
            else raise (Stop (Ambiguous at))
          end
        | Flow ((Isa.Call_to _ | Isa.Return | Isa.Computed), _) ->
          raise (Stop (Malformed "unlogged control transfer"))
    in
    (match walk 1_000_000 layout.A.Layout.er_min [] with
     | () ->
       { ok = true; error = None; path_length = !cursor;
         dests = List.rev !dests }
     | exception Stop e ->
       { ok = false; error = Some e; path_length = !cursor;
         dests = List.rev !dests })
