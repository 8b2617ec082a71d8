(* Randomized whole-program testing: generate small structured MiniC
   programs (assignments, array stores, conditionals, bounded loops,
   function calls) and check that the Unmodified / Tiny-CFA / DIALED
   builds produce identical results and identical final data memory —
   i.e. the instrumentation is observationally transparent — and that
   every benign DIALED run verifies. *)

module M = Dialed_msp430
module A = Dialed_apex
module C = Dialed_core
module Minic = Dialed_minic.Minic

(* ----------------------------------------------------------------- *)
(* Generator: programs over a fixed environment.                      *)

type expr =
  | Const of int
  | Local of int        (* a0 / a1 *)
  | Param of int        (* p0 / p1 *)
  | Global of int       (* g0 / g1 *)
  | Elt of expr         (* t[(e) & 7] *)
  | Bin of string * expr * expr
  | Helper of expr      (* twice(e) *)

type stmt =
  | Set_local of int * expr
  | Set_global of int * expr
  | Set_elt of expr * expr
  | If_ of expr * stmt list * stmt list
  | Loop of int * stmt list   (* canned: for (i_ = 0; i_ < k; ...) *)

let rec pp_expr buf e =
  match e with
  | Const n -> Buffer.add_string buf (string_of_int n)
  | Local i -> Buffer.add_string buf (Printf.sprintf "a%d" i)
  | Param i -> Buffer.add_string buf (Printf.sprintf "p%d" i)
  | Global i -> Buffer.add_string buf (Printf.sprintf "g%d" i)
  | Elt e ->
    Buffer.add_string buf "t[(";
    pp_expr buf e;
    Buffer.add_string buf ") & 7]"
  | Bin (op, l, r) ->
    Buffer.add_char buf '(';
    pp_expr buf l;
    Buffer.add_string buf (" " ^ op ^ " ");
    pp_expr buf r;
    Buffer.add_char buf ')'
  | Helper e ->
    Buffer.add_string buf "twice(";
    pp_expr buf e;
    Buffer.add_char buf ')'

let loop_counter = ref 0

let rec pp_stmt buf indent s =
  let pad = String.make indent ' ' in
  match s with
  | Set_local (i, e) ->
    Buffer.add_string buf (Printf.sprintf "%sa%d = " pad i);
    pp_expr buf e;
    Buffer.add_string buf ";\n"
  | Set_global (i, e) ->
    Buffer.add_string buf (Printf.sprintf "%sg%d = " pad i);
    pp_expr buf e;
    Buffer.add_string buf ";\n"
  | Set_elt (idx, e) ->
    Buffer.add_string buf (Printf.sprintf "%st[(" pad);
    pp_expr buf idx;
    Buffer.add_string buf ") & 7] = ";
    pp_expr buf e;
    Buffer.add_string buf ";\n"
  | If_ (c, t, f) ->
    Buffer.add_string buf (pad ^ "if (");
    pp_expr buf c;
    Buffer.add_string buf ") {\n";
    List.iter (pp_stmt buf (indent + 2)) t;
    if f = [] then Buffer.add_string buf (pad ^ "}\n")
    else begin
      Buffer.add_string buf (pad ^ "} else {\n");
      List.iter (pp_stmt buf (indent + 2)) f;
      Buffer.add_string buf (pad ^ "}\n")
    end
  | Loop (k, body) ->
    incr loop_counter;
    let v = Printf.sprintf "i%d" !loop_counter in
    Buffer.add_string buf
      (Printf.sprintf "%sfor (int %s = 0; %s < %d; %s = %s + 1) {\n" pad v v k
         v v);
    List.iter (pp_stmt buf (indent + 2)) body;
    Buffer.add_string buf (pad ^ "}\n")

let program_source ?(critical = []) stmts =
  loop_counter := 0;
  let buf = Buffer.create 1024 in
  let mark name = if List.mem name critical then "critical " else "" in
  Buffer.add_string buf
    (Printf.sprintf
       {|%sint g0 = 3;
%sint g1 = -5;
%sint t[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int twice(int x) { return x + x; }
int main(int p0, int p1) {
  int a0 = 0;
  int a1 = 1;
|}
       (mark "g0") (mark "g1") (mark "t"));
  List.iter (pp_stmt buf 2) stmts;
  Buffer.add_string buf
    {|  return a0 + a1 + g0 + g1 + t[0] + t[3] + t[7];
}
|};
  Buffer.contents buf

(* generator *)
let gen_expr =
  QCheck.Gen.(
    fix
      (fun self depth ->
         if depth = 0 then
           oneof
             [ map (fun n -> Const n) (int_range (-40) 40);
               map (fun i -> Local i) (int_range 0 1);
               map (fun i -> Param i) (int_range 0 1);
               map (fun i -> Global i) (int_range 0 1) ]
         else
           frequency
             [ (3, self 0);
               (2,
                map2
                  (fun op (l, r) -> Bin (op, l, r))
                  (oneofl [ "+"; "-"; "&"; "|"; "^"; "<"; "=="; ">" ])
                  (pair (self (depth - 1)) (self (depth - 1))));
               (1, map (fun e -> Elt e) (self (depth - 1)));
               (1, map (fun e -> Helper e) (self (depth - 1))) ])
      2)

let gen_stmts =
  QCheck.Gen.(
    fix
      (fun self depth ->
         let stmt =
           frequency
             ([ (3, map2 (fun i e -> Set_local (i, e)) (int_range 0 1) gen_expr);
                (2, map2 (fun i e -> Set_global (i, e)) (int_range 0 1) gen_expr);
                (2, map2 (fun i e -> Set_elt (i, e)) gen_expr gen_expr) ]
              @
              if depth = 0 then []
              else
                [ (2,
                   map2
                     (fun c (t, f) -> If_ (c, t, f))
                     gen_expr
                     (pair (self (depth - 1)) (self (depth - 1))));
                  (1,
                   map2 (fun k body -> Loop (k, body)) (int_range 1 4)
                     (self (depth - 1))) ])
         in
         list_size (int_range 1 4) stmt)
      2)

let print_stmts stmts = program_source stmts

let arb_program = QCheck.make ~print:print_stmts gen_stmts

(* ----------------------------------------------------------------- *)

type observation = {
  result : int;
  globals : int * int;
  table : int list;
}

(* Compile and build a generated program. One whose instrumented code
   does not fit below the caller stub cannot be attested at all, so it is
   outside every property's domain and the case is discarded. *)
let build_program ?variant ?dfa_config ?critical compiled =
  match
    C.Pipeline.build ?variant ?dfa_config ?critical ~data:compiled.Minic.data
      ~op:compiled.Minic.op ~or_min:0x0280 ()
  with
  | built -> built
  | exception C.Pipeline.Error msg
    when String.starts_with ~prefix:"operation overruns" msg ->
    QCheck.assume_fail ()

let observe variant stmts args =
  let source = program_source stmts in
  let built = build_program ~variant (Minic.compile source) in
  let device = C.Pipeline.device built in
  let run = A.Device.run_operation ~args device in
  if not run.A.Device.completed then
    QCheck.Test.fail_reportf "did not complete (%s):\n%s"
      (C.Pipeline.variant_name variant)
      source;
  let mem = A.Device.memory device in
  let g0 = M.Assemble.symbol built.C.Pipeline.image "g0" in
  let g1 = M.Assemble.symbol built.C.Pipeline.image "g1" in
  let t = M.Assemble.symbol built.C.Pipeline.image "t" in
  ( { result = M.Cpu.get_reg (A.Device.cpu device) 15;
      globals = (M.Memory.peek16 mem g0, M.Memory.peek16 mem g1);
      table = List.init 8 (fun i -> M.Memory.peek16 mem (t + (2 * i))) },
    built,
    device )

let prop_variants_agree =
  QCheck.Test.make ~name:"random programs: all variants agree" ~count:30
    arb_program
    (fun stmts ->
       let args = [ 11; -7 ] in
       let plain, _, _ = observe C.Pipeline.Unmodified stmts args in
       let cfa, _, _ = observe C.Pipeline.Cfa_only stmts args in
       let full, _, _ = observe C.Pipeline.Full stmts args in
       if plain <> cfa || cfa <> full then
         QCheck.Test.fail_reportf
           "observations diverge on:\n%s\nplain result=%d cfa=%d full=%d"
           (program_source stmts) plain.result cfa.result full.result
       else true)

let prop_benign_runs_verify =
  QCheck.Test.make ~name:"random programs: benign runs verify" ~count:20
    arb_program
    (fun stmts ->
       let _, built, device = observe C.Pipeline.Full stmts [ 5; 9 ] in
       let report = A.Device.attest device ~challenge:"rand" in
       let outcome = C.Verifier.verify (C.Verifier.create built) report in
       if not outcome.C.Verifier.accepted then
         QCheck.Test.fail_reportf "benign random program rejected:\n%s\n%s"
           (program_source stmts)
           (Format.asprintf "%a" C.Verifier.pp_outcome outcome)
       else true)

let prop_tampered_log_never_verifies =
  QCheck.Test.make ~name:"random programs: any log flip is rejected"
    ~count:20
    (QCheck.pair arb_program (QCheck.int_range 1 200))
    (fun (stmts, flip_seed) ->
       let _, built, device = observe C.Pipeline.Full stmts [ 5; 9 ] in
       let report = A.Device.attest device ~challenge:"rand" in
       (* flip one bit of the used log region, position from the seed *)
       let or_data = Bytes.of_string report.A.Pox.or_data in
       let final_r4 = M.Cpu.get_reg (A.Device.cpu device) 4 in
       let layout = built.C.Pipeline.layout in
       let used = layout.A.Layout.or_max + 1 - (final_r4 + 2) in
       QCheck.assume (used > 0);
       let off =
         (final_r4 + 2 - layout.A.Layout.or_min) + (flip_seed mod used)
       in
       Bytes.set or_data off
         (Char.chr (Char.code (Bytes.get or_data off) lxor (1 lsl (flip_seed mod 8))));
       let forged = { report with A.Pox.or_data = Bytes.to_string or_data } in
       let outcome = C.Verifier.verify (C.Verifier.create built) forged in
       not outcome.C.Verifier.accepted)

let prop_cfa_walker_validates_random_paths =
  QCheck.Test.make
    ~name:"random programs: static CFA walk validates benign logs" ~count:20
    arb_program
    (fun stmts ->
       let source = program_source stmts in
       let built =
         build_program ~variant:C.Pipeline.Cfa_only (Minic.compile source)
       in
       let device = C.Pipeline.device built in
       let run = A.Device.run_operation ~args:[ 3; 8 ] device in
       if not run.A.Device.completed then
         QCheck.Test.fail_reportf "cfa build did not complete:\n%s" source;
       let report = A.Device.attest device ~challenge:"walk" in
       let outcome = C.Cfa_verifier.verify built report in
       if not outcome.C.Cfa_verifier.ok then
         QCheck.Test.fail_reportf "static walk rejected a benign run:\n%s\n%s"
           source
           (match outcome.C.Cfa_verifier.error with
            | Some e -> Format.asprintf "%a" C.Cfa_verifier.pp_error e
            | None -> "?")
       else true)

(* ----------------------------------------------------------------- *)
(* Selective-attestation soundness: over random programs and random
   non-empty critical subsets, a selectively instrumented binary that
   passes the dataflow audit gives the same verdict as the fully
   instrumented one — accepted when benign, and identical accept/reject
   on every pre-run tampering of a critical global. The reduced
   discipline trades away detection of non-critical RAM tampering only;
   this pins that the trade never reaches the critical set.            *)

module S = Dialed_staticcheck

let build_disciplines source =
  let compiled = Minic.compile source in
  let build selective =
    let dfa_config =
      if selective then
        { C.Dfa.default_config with
          C.Dfa.selective =
            Some
              { C.Dfa.critical =
                  List.map fst compiled.Minic.criticals } }
      else C.Dfa.default_config
    in
    build_program ~dfa_config ~critical:compiled.Minic.criticals compiled
  in
  (build false, build true, compiled.Minic.criticals)

(* verdict on a device whose critical global [name] was tampered with
   before the run; None when the tampered run never completes *)
let tampered_verdict built name size =
  let device = C.Pipeline.device built in
  let mem = A.Device.memory device in
  let addr = M.Assemble.symbol built.C.Pipeline.image name in
  for k = 0 to (size / 2) - 1 do
    let a = addr + (2 * k) in
    M.Memory.poke16 mem a (M.Memory.peek16 mem a lxor 0x5A5A)
  done;
  let run = A.Device.run_operation ~args:[ 5; 9 ] device in
  if not run.A.Device.completed then None
  else begin
    let report = A.Device.attest device ~challenge:"sel-tamper" in
    let outcome = C.Verifier.verify_plan (C.Verifier.plan built) report in
    Some outcome.C.Verifier.accepted
  end

let prop_selective_soundness =
  QCheck.Test.make
    ~name:"random programs: selective verdicts match full on critical \
           tampering"
    ~count:15
    (QCheck.pair arb_program
       (QCheck.triple QCheck.bool QCheck.bool QCheck.bool))
    (fun (stmts, (c0, c1, ct)) ->
       QCheck.assume (c0 || c1 || ct);
       let critical =
         List.concat
           [ (if c0 then [ "g0" ] else []);
             (if c1 then [ "g1" ] else []);
             (if ct then [ "t" ] else []) ]
       in
       let source = program_source ~critical stmts in
       let full, sel, criticals = build_disciplines source in
       (* the reduced discipline is only sound behind a clean audit *)
       let audit = C.Verifier.audit_built sel in
       if not (S.Report.ok audit) then
         QCheck.Test.fail_reportf
           "selective build failed its own dataflow audit:\n%s\n%s" source
           (Format.asprintf "%a" S.Report.pp audit);
       (* benign runs: both disciplines accept. A run that stops with
          its log pointer below or_min filled the OR log; when the full
          discipline does, the program cannot be attested at all, and
          the case is discarded like an overrunning build. *)
       let benign built =
         let device = C.Pipeline.device built in
         let run = A.Device.run_operation ~args:[ 5; 9 ] device in
         if not run.A.Device.completed then
           if M.Cpu.get_reg (A.Device.cpu device) 4
              < built.C.Pipeline.layout.A.Layout.or_min
           then `Log_full
           else `Rejected
         else
           let report = A.Device.attest device ~challenge:"sel-benign" in
           if (C.Verifier.verify_plan (C.Verifier.plan built) report)
                .C.Verifier.accepted
           then `Accepted
           else `Rejected
       in
       let benign_full = benign full in
       if benign_full = `Log_full then QCheck.assume_fail ();
       if benign_full <> `Accepted || benign sel <> `Accepted then
         QCheck.Test.fail_reportf "benign run rejected:\n%s" source;
       (* per-critical tampering: identical verdicts *)
       List.iter
         (fun (name, size) ->
            let vf = tampered_verdict full name size in
            let vs = tampered_verdict sel name size in
            if vf <> vs then
              QCheck.Test.fail_reportf
                "verdicts diverge on tampered %s (full=%s selective=%s):\n%s"
                name
                (match vf with
                 | None -> "no-run"
                 | Some b -> string_of_bool b)
                (match vs with
                 | None -> "no-run"
                 | Some b -> string_of_bool b)
                source)
         criticals;
       true)

(* seeds whose generated programs fill the OR log in the benign run:
   regression cases for the discard rule above *)
let selective_soundness_pins =
  List.map
    (fun seed ->
       let name, speed, run =
         QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
           prop_selective_soundness
       in
       (Printf.sprintf "%s [seed %d]" name seed, speed, run))
    [ 429; 960; 1659 ]

let suites =
  [ ("random-programs",
     List.map QCheck_alcotest.to_alcotest
       [ prop_variants_agree; prop_benign_runs_verify;
         prop_tampered_log_never_verifies;
         prop_cfa_walker_validates_random_paths;
         prop_selective_soundness ]
     @ selective_soundness_pins) ]
