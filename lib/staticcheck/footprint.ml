module B = Basic_block
module Isa = Dialed_msp430.Isa
module R = Report

let g_add a b =
  match a, b with
  | R.Bounded x, R.Bounded y -> R.Bounded (x + y)
  | (R.Unbounded _ as u), _ | _, (R.Unbounded _ as u) -> u

let g_max a b =
  match a, b with
  | R.Bounded x, R.Bounded y -> R.Bounded (max x y)
  | (R.Unbounded _ as u), _ | _, (R.Unbounded _ as u) -> u

(* Intra-procedural successors: calls continue at their return site (the
   callee's growth is folded into the call block's weight). *)
let intra_succ (b : B.block) =
  match b.B.term with
  | Isa.Next | Isa.Call_to _ -> [ b.B.b_next ]
  | Isa.Goto n -> [ n ]
  | Isa.Branch taken -> [ taken; b.B.b_next ]
  | Isa.Return | Isa.Computed | Isa.Halt -> []

(* Worst-case number of log entries appended along any path from [entry]:
   per-function longest path over the SCC condensation of its
   intra-procedural CFG, with callee growth from memoized function
   summaries. Cyclic SCCs that append are bounded by [loop_bound]
   iterations or reported unbounded. *)
let worst_case ~cfg ~appends ?loop_bound ~entry () =
  let weight = Hashtbl.create 64 in
  List.iter
    (fun (addr, _kind) ->
       match B.block_containing cfg addr with
       | Some b ->
         Hashtbl.replace weight b.B.b_start
           (1 + Option.value ~default:0 (Hashtbl.find_opt weight b.B.b_start))
       | None -> ())
    appends;
  let block_appends a = Option.value ~default:0 (Hashtbl.find_opt weight a) in
  let memo = Hashtbl.create 8 in
  let in_progress = Hashtbl.create 8 in
  let rec func_worst f =
    match Hashtbl.find_opt memo f with
    | Some g -> g
    | None ->
      if Hashtbl.mem in_progress f then
        R.Unbounded (Printf.sprintf "recursive call through 0x%04x" f)
      else begin
        Hashtbl.replace in_progress f ();
        let g = compute f in
        Hashtbl.remove in_progress f;
        Hashtbl.replace memo f g;
        g
      end
  and compute f =
    match B.block_at cfg f with
    | None -> R.Unbounded (Printf.sprintf "no code at entry 0x%04x" f)
    | Some _ ->
      (* blocks reachable through intra-procedural edges *)
      let seen = Hashtbl.create 32 in
      let rec reach a =
        if not (Hashtbl.mem seen a) then
          match B.block_at cfg a with
          | None -> ()   (* edge out of the swept range *)
          | Some b ->
            Hashtbl.replace seen a b;
            List.iter reach (intra_succ b)
      in
      reach f;
      (* per-block growth, callee summaries folded in *)
      let bw = Hashtbl.create 32 in
      Hashtbl.iter
        (fun a (b : B.block) ->
           let w =
             match b.B.term with
             | Isa.Call_to (Some t) ->
               g_add (R.Bounded (block_appends a)) (func_worst t)
             | Isa.Call_to None ->
               R.Unbounded
                 (Printf.sprintf "indirect call at 0x%04x" b.B.b_last)
             | Isa.Computed ->
               R.Unbounded
                 (Printf.sprintf "indirect branch at 0x%04x" b.B.b_last)
             | _ -> R.Bounded (block_appends a)
           in
           Hashtbl.replace bw a w)
        seen;
      let succs_in a =
        List.filter (Hashtbl.mem seen) (intra_succ (Hashtbl.find seen a))
      in
      (* Tarjan SCC over the reachable blocks *)
      let index = Hashtbl.create 32 and low = Hashtbl.create 32 in
      let onstack = Hashtbl.create 32 in
      let stack = ref [] in
      let counter = ref 0 in
      let comp_of = Hashtbl.create 32 in
      let comps = ref [] in
      let ncomps = ref 0 in
      let rec strong v =
        Hashtbl.replace index v !counter;
        Hashtbl.replace low v !counter;
        incr counter;
        stack := v :: !stack;
        Hashtbl.replace onstack v ();
        List.iter
          (fun w ->
             if not (Hashtbl.mem index w) then begin
               strong w;
               Hashtbl.replace low v
                 (min (Hashtbl.find low v) (Hashtbl.find low w))
             end
             else if Hashtbl.mem onstack w then
               Hashtbl.replace low v
                 (min (Hashtbl.find low v) (Hashtbl.find index w)))
          (succs_in v);
        if Hashtbl.find low v = Hashtbl.find index v then begin
          let cid = !ncomps in
          incr ncomps;
          let members = ref [] in
          let continue = ref true in
          while !continue do
            match !stack with
            | [] -> continue := false
            | w :: rest ->
              stack := rest;
              Hashtbl.remove onstack w;
              Hashtbl.replace comp_of w cid;
              members := w :: !members;
              if w = v then continue := false
          done;
          comps := (cid, !members) :: !comps
        end
      in
      Hashtbl.iter (fun a _ -> if not (Hashtbl.mem index a) then strong a) seen;
      (* component weights: acyclic = member weight; cyclic that appends =
         bounded by the loop policy or unbounded *)
      let comp_weight = Hashtbl.create 8 in
      List.iter
        (fun (cid, members) ->
           let cyclic =
             match members with
             | [ a ] -> List.mem a (succs_in a)
             | _ -> true
           in
           let base =
             List.fold_left
               (fun acc a -> g_add acc (Hashtbl.find bw a))
               (R.Bounded 0) members
           in
           let w =
             if not cyclic then base
             else
               match base with
               | R.Bounded 0 -> R.Bounded 0
               | R.Bounded x ->
                 (match loop_bound with
                  | Some k -> R.Bounded (x * k)
                  | None ->
                    R.Unbounded
                      (Printf.sprintf "loop through 0x%04x appends to the log"
                         (List.fold_left min max_int members)))
               | R.Unbounded _ as u -> u
           in
           Hashtbl.replace comp_weight cid w)
        !comps;
      (* longest path over the condensation DAG *)
      let comp_succs cid =
        List.sort_uniq compare
          (List.concat_map
             (fun (c, members) ->
                if c <> cid then []
                else
                  List.concat_map
                    (fun a ->
                       List.filter_map
                         (fun s ->
                            let sc = Hashtbl.find comp_of s in
                            if sc <> cid then Some sc else None)
                         (succs_in a))
                    members)
             !comps)
      in
      let memo_val = Hashtbl.create 8 in
      let rec value cid =
        match Hashtbl.find_opt memo_val cid with
        | Some v -> v
        | None ->
          let best =
            List.fold_left
              (fun acc c -> g_max acc (value c))
              (R.Bounded 0) (comp_succs cid)
          in
          let v = g_add (Hashtbl.find comp_weight cid) best in
          Hashtbl.replace memo_val cid v;
          v
      in
      value (Hashtbl.find comp_of f)
  in
  func_worst entry
