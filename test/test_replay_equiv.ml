(* Replay-engine equivalence: the optimized engine (predecoded ER,
   packed trace buffer, [keep_trace:false]) must be verdict-identical to
   the reference path (fresh byte-level decode, full step retention) on
   benign and adversarial reports, and the fleet engine must agree
   regardless of domain count.

   Also pins the bad-opcode regression: a report whose replay fetches an
   undecodable word must be rejected with [Replay_failed] only — the old
   engine materialized a placeholder instruction for the faulting step
   and could file a spurious shadow-stack finding on top. *)

module M = Dialed_msp430
module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module Apps = Dialed_apps.Apps
module Asm_parse = M.Asm_parse

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let flip_or_word ~re_mac built (report : A.Pox.report) k =
  let off = Forge.entry_offset report k in
  let or_data = Bytes.of_string report.A.Pox.or_data in
  Bytes.set or_data off
    (Char.chr (Char.code (Bytes.get or_data off) lxor 0x80));
  let r = { report with A.Pox.or_data = Bytes.to_string or_data } in
  if re_mac then Forge.token built r else r

(* benign fire-sensor run plus tampered variants covering every verdict
   class: accept, bad-token, log-divergence, malformed/replay-failed *)
let corpus =
  lazy
    (let run = Apps.run Apps.fire_sensor in
     let built = run.Apps.built in
     let report = A.Device.attest run.Apps.device ~challenge:"equiv" in
     ( built,
       [ ("benign", report);
         ("bit flip, no key", flip_or_word ~re_mac:false built report 10);
         ("entry flip, forged MAC", flip_or_word ~re_mac:true built report 10);
         ("F3 frame flip, forged MAC", flip_or_word ~re_mac:true built report 0);
         ("truncated, forged MAC",
          Forge.token built
            { report with
              A.Pox.or_data = String.sub report.A.Pox.or_data 0 17 }) ] ))

let signature outcome =
  ( outcome.C.Verifier.accepted,
    outcome.C.Verifier.findings,
    match outcome.C.Verifier.trace with
    | Some t -> t.C.Verifier.step_count
    | None -> -1 )

(* Outcomes must agree across decode_cache on/off x keep_trace on/off.
   The reference point is (fresh decode, keep_trace=true) — the engine
   the seed shipped. *)
let test_cache_and_trace_equivalence () =
  let built, reports = Lazy.force corpus in
  let reference_plan = C.Verifier.plan ~decode_cache:false built in
  let cached_plan = C.Verifier.plan built in
  List.iter
    (fun (name, report) ->
       let reference =
         signature (C.Verifier.verify_plan reference_plan report)
       in
       List.iter
         (fun (cfg, plan, keep_trace) ->
            check_bool
              (Printf.sprintf "%s: %s matches reference" name cfg)
              true
              (signature (C.Verifier.verify_plan ~keep_trace plan report)
               = reference))
         [ ("fresh decode, no trace", reference_plan, false);
           ("cached decode, trace", cached_plan, true);
           ("cached decode, no trace", cached_plan, false) ])
    reports

(* With keep_trace the cached path must also retell the same story
   step-by-step; only Fetch accesses may differ (the predecoded fast
   path never performs the byte-level fetch, so it records none). *)
let test_step_equivalence_modulo_fetch () =
  let built, reports = Lazy.force corpus in
  let benign = List.assoc "benign" reports in
  let steps plan =
    match (C.Verifier.verify_plan plan benign).C.Verifier.trace with
    | Some t -> t.C.Verifier.steps
    | None -> Alcotest.fail "benign replay produced no trace"
  in
  let fresh = steps (C.Verifier.plan ~decode_cache:false built) in
  let cached = steps (C.Verifier.plan built) in
  check_int "same number of steps" (List.length fresh) (List.length cached);
  List.iter2
    (fun (a : C.Verifier.step) (b : C.Verifier.step) ->
       let non_fetch s =
         List.filter
           (fun (acc : M.Memory.access) ->
              match acc.M.Memory.kind with
              | M.Memory.Fetch -> false
              | M.Memory.Read | M.Memory.Write -> true)
           s.C.Verifier.s_accesses
       in
       check_bool
         (Printf.sprintf "step %d identical modulo fetches" a.C.Verifier.s_index)
         true
         (a.C.Verifier.s_index = b.C.Verifier.s_index
          && a.C.Verifier.s_pc = b.C.Verifier.s_pc
          && a.C.Verifier.s_instr = b.C.Verifier.s_instr
          && a.C.Verifier.s_pc_after = b.C.Verifier.s_pc_after
          && non_fetch a = non_fetch b))
    fresh cached

(* Fleet: verdicts independent of the domain count, with the batch path
   running keep_trace=false over the shared cached plan. *)
let test_fleet_domains_equivalence () =
  let built, reports = Lazy.force corpus in
  let batch =
    List.concat_map
      (fun i ->
         List.map
           (fun (name, r) -> (Printf.sprintf "%s #%d" name i, r))
           reports)
      [ 0; 1 ]
  in
  let plan = F.Plan.of_built built in
  let one = F.Fleet.verify_batch ~domains:1 plan batch in
  let four = F.Fleet.verify_batch ~domains:4 plan batch in
  check_int "verdict count" (List.length batch)
    (List.length one.F.Fleet.verdicts);
  List.iter2
    (fun (a : F.Fleet.verdict) (b : F.Fleet.verdict) ->
       check_bool
         (Printf.sprintf "%s: domains 1 = domains 4" a.F.Fleet.device_id)
         true
         (a.F.Fleet.device_id = b.F.Fleet.device_id
          && a.F.Fleet.accepted = b.F.Fleet.accepted
          && a.F.Fleet.findings = b.F.Fleet.findings
          && a.F.Fleet.replay_steps = b.F.Fleet.replay_steps))
    one.F.Fleet.verdicts four.F.Fleet.verdicts

(* ---------------------------------------------------------------- *)
(* Golden replays. The cross-configuration checks above compare two
   paths that share one interpreter, so a wrong instruction semantics
   would agree with itself; these pin each replay's result to literal
   values recorded with the byte-level reference engine before the
   interpreter's fast step path was rewritten.                        *)

type golden_trace = {
  g_steps : int;
  g_final_r4 : int;
  g_cf_dests : int list;
  g_inputs : int list;
}

type golden = {
  g_accepted : bool;
  g_findings : C.Verifier.finding list;
  g_trace : golden_trace option;
}

(* every bundled app's benign run, the syringe-pump attacks, and the
   tamper corpus above *)
let golden_cases =
  lazy
    (let attested name (run : Apps.run) =
       ( name, run.Apps.built,
         A.Device.attest run.Apps.device ~challenge:"golden" )
     in
     let vuln = Apps.syringe_pump_vuln in
     let benign app = attested (app.Apps.name ^ " benign") (Apps.run app) in
     let code_modification =
       (* malware rewrites one ER byte before the run: the token binds the
          expected ER, so this dies in the precheck *)
       let built = Apps.build vuln in
       let device = C.Pipeline.device built in
       vuln.Apps.setup device;
       let er_min = (A.Device.layout device).A.Layout.er_min in
       A.Device.attacker_write device ~addr:(er_min + 4) ~value:0x3F;
       ignore (A.Device.run_operation ~args:vuln.Apps.benign_args device);
       ( "syringe-pump-vuln code modification", built,
         A.Device.attest device ~challenge:"golden" )
     in
     let fire_built, fire_reports = Lazy.force corpus in
     List.map benign (Apps.all @ [ vuln ])
     @ [ attested "thermocouple selective benign"
           (Apps.run ~selective:true Apps.thermocouple);
         attested "syringe-pump-vuln data-only attack"
           (Apps.run ~args:Apps.attack_args_syringe_vuln vuln);
         code_modification ]
     @ List.map
         (fun (name, r) -> ("fire-sensor tamper corpus: " ^ name, fire_built, r))
         fire_reports)

let goldens =
  C.Verifier.
  [ ( "syringe-pump benign",
      { g_accepted = true;
        g_findings = [];
        g_trace =
          Some
            { g_steps = 1685; g_final_r4 = 0x04d0;
              g_cf_dests =
                [ 0xe13e; 0xe39c; 0xe3d0; 0xe400; 0xe3a2; 0xe3d0; 0xe400;
                  0xe3a2; 0xe3d0; 0xe3fe; 0xe3a2; 0xe41a; 0xe172; 0xe1e4;
                  0xe21a; 0xe356; 0xe232; 0xe25e; 0xe1ac; 0xe1e4; 0xe21a;
                  0xe356; 0xe232; 0xe25e; 0xe1ac; 0xe1e4; 0xe21a; 0xe356;
                  0xe232; 0xe25e; 0xe1ac; 0xe1e4; 0xe21a; 0xe356; 0xe232;
                  0xe25e; 0xe1ac; 0xe1e4; 0xe21a; 0xe356; 0xe232; 0xe25e;
                  0xe1ac; 0xe1e4; 0xe21a; 0xe356; 0xe232; 0xe25e; 0xe1ac;
                  0xe1e4; 0xe21a; 0xe356; 0xe232; 0xe25e; 0xe1ac; 0xe1e4;
                  0xe21a; 0xe356; 0xe232; 0xe25e; 0xe1ac; 0xe1e4; 0xe21a;
                  0xe356; 0xe232; 0xe25e; 0xe1ac; 0xe1e4; 0xe21a; 0xe356;
                  0xe232; 0xe25e; 0xe1ac; 0xe1e4; 0xe21a; 0xe356; 0xe232;
                  0xe25e; 0xe1ac; 0xe1e4; 0xe21a; 0xe356; 0xe232; 0xe25e;
                  0xe1ac; 0xe1e4; 0xe21a; 0xe356; 0xe232; 0xe25e; 0xe1ac;
                  0xe1e4; 0xe21a; 0xe356; 0xe232; 0xe25e; 0xe1ac; 0xe1e4;
                  0xe21a; 0xe356; 0xe232; 0xe25e; 0xe1ac; 0xe1e4; 0xe21a;
                  0xe356; 0xe232; 0xe25e; 0xe1ac; 0xe1e4; 0xe21a; 0xe356;
                  0xe232; 0xe25e; 0xe1ac; 0xe1e4; 0xe21a; 0xe356; 0xe232;
                  0xe25e; 0xe1ac; 0xe1e4; 0xe21a; 0xe356; 0xe232; 0xe25e;
                  0xe1ac; 0xe1e4; 0xe21a; 0xe356; 0xe232; 0xe25e; 0xe1ac;
                  0xe298; 0xe2ce; 0xe324; 0xe42e; 0xf808 ];
              g_inputs =
                [ 0x09fe; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0005; 0x0001; 0x0009; 0x0004; 0x0000; 0xfffb ] } } );
    ( "fire-sensor benign",
      { g_accepted = true;
        g_findings = [];
        g_trace =
          Some
            { g_steps = 1327; g_final_r4 = 0x04dc;
              g_cf_dests =
                [ 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe1a4; 0xe330; 0xe366; 0xe39a; 0xe4ba; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4f6;
                  0xe4c2; 0xe4fa; 0xe528; 0xe3b0; 0xe3e4; 0xe1c8; 0xe3f6;
                  0xe42c; 0xe45e; 0xe4ba; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe528;
                  0xe474; 0xe4a8; 0xe258; 0xe330; 0xe366; 0xe39a; 0xe4ba;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4f6; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4f6; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4f6; 0xe528; 0xe3b0; 0xe3e4; 0xe28a;
                  0xe308; 0xe53a; 0xf808 ];
              g_inputs =
                [ 0x09fe; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0000; 0x0004; 0x024c; 0x024e; 0x0250; 0x024e; 0x0000;
                  0x0000; 0x0037 ] } } );
    ( "ultrasonic-ranger benign",
      { g_accepted = true;
        g_findings = [];
        g_trace =
          Some
            { g_steps = 1315; g_final_r4 = 0x04e0;
              g_cf_dests =
                [ 0xe134; 0xe2cc; 0xe302; 0xe336; 0xe392; 0xe3d2; 0xe39a;
                  0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2;
                  0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a;
                  0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3ce; 0xe39a; 0xe3d2;
                  0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3ce; 0xe39a;
                  0xe3ce; 0xe400; 0xe34c; 0xe380; 0xe194; 0xe1e8; 0xe0fc;
                  0xe134; 0xe2cc; 0xe302; 0xe336; 0xe392; 0xe3d2; 0xe39a;
                  0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2;
                  0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a;
                  0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3ce;
                  0xe39a; 0xe3ce; 0xe39a; 0xe3ce; 0xe39a; 0xe3ce; 0xe39a;
                  0xe3d2; 0xe400; 0xe34c; 0xe380; 0xe194; 0xe1e8; 0xe0fc;
                  0xe134; 0xe2cc; 0xe302; 0xe336; 0xe392; 0xe3d2; 0xe39a;
                  0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2;
                  0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a;
                  0xe3d2; 0xe39a; 0xe3d2; 0xe39a; 0xe3ce; 0xe39a; 0xe3d2;
                  0xe39a; 0xe3ce; 0xe39a; 0xe3d2; 0xe39a; 0xe3d2; 0xe39a;
                  0xe3d2; 0xe400; 0xe34c; 0xe380; 0xe194; 0xe208; 0xe0fc;
                  0xe242; 0xe2a4; 0xe412; 0xf808 ];
              g_inputs =
                [ 0x09fe; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0000; 0x0003; 0x07ee; 0x06cc; 0x0910; 0x000a ] } } );
    ( "thermocouple benign",
      { g_accepted = true;
        g_findings = [];
        g_trace =
          Some
            { g_steps = 4935; g_final_r4 = 0x0366;
              g_cf_dests =
                [ 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe1c6; 0xe23a; 0xe202; 0xe23a; 0xe202;
                  0xe2ac; 0xe494; 0xe4ca; 0xe4fe; 0xe55a; 0xe59a; 0xe562;
                  0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a;
                  0xe562; 0xe59a; 0xe562; 0xe59a; 0xe562; 0xe596; 0xe562;
                  0xe596; 0xe562; 0xe596; 0xe562; 0xe59a; 0xe562; 0xe596;
                  0xe562; 0xe59a; 0xe562; 0xe596; 0xe562; 0xe596; 0xe562;
                  0xe59a; 0xe5c8; 0xe514; 0xe548; 0xe2d0; 0xe494; 0xe4ca;
                  0xe4fe; 0xe55a; 0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a;
                  0xe562; 0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a; 0xe562;
                  0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a;
                  0xe562; 0xe59a; 0xe562; 0xe596; 0xe562; 0xe596; 0xe562;
                  0xe596; 0xe562; 0xe59a; 0xe562; 0xe596; 0xe5c8; 0xe514;
                  0xe548; 0xe310; 0xe384; 0xe494; 0xe4ca; 0xe4fe; 0xe55a;
                  0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a;
                  0xe562; 0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a; 0xe562;
                  0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a; 0xe562; 0xe59a;
                  0xe562; 0xe596; 0xe562; 0xe596; 0xe562; 0xe59a; 0xe562;
                  0xe59a; 0xe562; 0xe59a; 0xe5c8; 0xe514; 0xe548; 0xe3e8;
                  0xe46c; 0xe5da; 0xf808 ];
              g_inputs =
                [ 0x09fe; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0000; 0x0002; 0x0008; 0x0009; 0x000b; 0x000c; 0x000e;
                  0x000f; 0x0010; 0x0011; 0x0013; 0x0014; 0x0015; 0x0016;
                  0x0017; 0x0018; 0x0019; 0x001a; 0x001b; 0x001b; 0x001c;
                  0x001d; 0x001e; 0x001e; 0x001f; 0x001f; 0x0020; 0x0020;
                  0x0020; 0x0020; 0x0021; 0x0021; 0x0021; 0x0021; 0x0021;
                  0x0021; 0x0021; 0x0021; 0x0021; 0x0020; 0x0020; 0x0020;
                  0x0020; 0x001f; 0x001f; 0x001e; 0x001e; 0x001d; 0x001c;
                  0x001b; 0x001b; 0x001a; 0x0019; 0x0018; 0x0017; 0x0016;
                  0x0015; 0x0014; 0x0013; 0x0011; 0x0010; 0x000f; 0x000e;
                  0x000c; 0x000b; 0x0009; 0x01d4; 0x01d8; 0x0021; 0x0208 ] } } );
    ( "syringe-pump-vuln benign",
      { g_accepted = true;
        g_findings = [];
        g_trace =
          Some
            { g_steps = 324; g_final_r4 = 0x05c4;
              g_cf_dests =
                [ 0xe18a; 0xe1e0; 0xe1a8; 0xe1e0; 0xe1a8; 0xe1e0; 0xe1a8;
                  0xe1e0; 0xe1a8; 0xe1e0; 0xe1a8; 0xe238; 0xe25a; 0xf808 ];
              g_inputs =
                [ 0x09fe; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0003; 0x0007; 0x0005; 0x0001; 0x0001; 0x0001; 0x0001;
                  0x0001 ] } } );
    ( "thermocouple selective benign",
      { g_accepted = true;
        g_findings = [];
        g_trace =
          Some
            { g_steps = 4675; g_final_r4 = 0x03e8;
              g_cf_dests =
                [ 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa;
                  0xe132; 0xe0fa; 0xe1bc; 0xe230; 0xe1f8; 0xe230; 0xe1f8;
                  0xe2a2; 0xe480; 0xe4b6; 0xe4ea; 0xe546; 0xe586; 0xe54e;
                  0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586;
                  0xe54e; 0xe586; 0xe54e; 0xe586; 0xe54e; 0xe582; 0xe54e;
                  0xe582; 0xe54e; 0xe582; 0xe54e; 0xe586; 0xe54e; 0xe582;
                  0xe54e; 0xe586; 0xe54e; 0xe582; 0xe54e; 0xe582; 0xe54e;
                  0xe586; 0xe5b4; 0xe500; 0xe534; 0xe2c6; 0xe480; 0xe4b6;
                  0xe4ea; 0xe546; 0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586;
                  0xe54e; 0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586; 0xe54e;
                  0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586;
                  0xe54e; 0xe586; 0xe54e; 0xe582; 0xe54e; 0xe582; 0xe54e;
                  0xe582; 0xe54e; 0xe586; 0xe54e; 0xe582; 0xe5b4; 0xe500;
                  0xe534; 0xe306; 0xe37a; 0xe480; 0xe4b6; 0xe4ea; 0xe546;
                  0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586;
                  0xe54e; 0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586; 0xe54e;
                  0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586; 0xe54e; 0xe586;
                  0xe54e; 0xe582; 0xe54e; 0xe582; 0xe54e; 0xe586; 0xe54e;
                  0xe586; 0xe54e; 0xe586; 0xe5b4; 0xe500; 0xe534; 0xe3d4;
                  0xe458; 0xe5c6; 0xf808 ];
              g_inputs =
                [ 0x09fe; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0000; 0x0002; 0x01d4; 0x01d8; 0x0208 ] } } );
    ( "syringe-pump-vuln data-only attack",
      { g_accepted = false;
        g_findings =
          [ Oob_access
              { pc = 0xe100; kind = `Write; array = "settings";
                ea = 0x0210; lo = 0x0200; hi = 0x020f } ];
        g_trace =
          Some
            { g_steps = 324; g_final_r4 = 0x05c4;
              g_cf_dests =
                [ 0xe18a; 0xe1e0; 0xe1a8; 0xe1e0; 0xe1a8; 0xe1e0; 0xe1a8;
                  0xe1e0; 0xe1a8; 0xe1e0; 0xe1a8; 0xe238; 0xe25a; 0xf808 ];
              g_inputs =
                [ 0x09fe; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0008; 0x0000; 0x0005; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0000 ] } } );
    ( "syringe-pump-vuln code modification",
      { g_accepted = false;
        g_findings =
          [ Bad_token "token mismatch: code, output or parameters were tampered with" ];
        g_trace = None } );
    ( "fire-sensor tamper corpus: benign",
      { g_accepted = true;
        g_findings = [];
        g_trace =
          Some
            { g_steps = 1327; g_final_r4 = 0x04dc;
              g_cf_dests =
                [ 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe1a4; 0xe330; 0xe366; 0xe39a; 0xe4ba; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4f6;
                  0xe4c2; 0xe4fa; 0xe528; 0xe3b0; 0xe3e4; 0xe1c8; 0xe3f6;
                  0xe42c; 0xe45e; 0xe4ba; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe528;
                  0xe474; 0xe4a8; 0xe258; 0xe330; 0xe366; 0xe39a; 0xe4ba;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4f6; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4f6; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4f6; 0xe528; 0xe3b0; 0xe3e4; 0xe28a;
                  0xe308; 0xe53a; 0xf808 ];
              g_inputs =
                [ 0x09fe; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0000; 0x0004; 0x024c; 0x024e; 0x0250; 0x024e; 0x0000;
                  0x0000; 0x0037 ] } } );
    ( "fire-sensor tamper corpus: bit flip, no key",
      { g_accepted = false;
        g_findings =
          [ Bad_token "token mismatch: code, output or parameters were tampered with" ];
        g_trace = None } );
    ( "fire-sensor tamper corpus: entry flip, forged MAC",
      { g_accepted = false;
        g_findings =
          [ Log_divergence
              { step = 474; pc = 0xe4cc; addr = 0x05a2;
                device_value = 0xe4fa; replay_value = 0xe4f6 } ];
        g_trace =
          Some
            { g_steps = 475; g_final_r4 = 0x05a2;
              g_cf_dests =
                [ 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132; 0xe0fa; 0xe132;
                  0xe0fa; 0xe1a4; 0xe330; 0xe366; 0xe39a; 0xe4ba; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2;
                  0xe4fa; 0xe4c2; 0xe4fa; 0xe4c2; 0xe4f6; 0xe4c2; 0xe4fa;
                  0xe4c2; 0xe4fa; 0xe4c2; 0xe4f6; 0xe4c2 ];
              g_inputs =
                [ 0x09fe; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000; 0x0000;
                  0x0000; 0x0004; 0x02cc; 0x024e; 0x0250; 0x024e ] } } );
    ( "fire-sensor tamper corpus: F3 frame flip, forged MAC",
      { g_accepted = false;
        g_findings =
          [ Log_divergence
              { step = 4; pc = 0xe00a; addr = 0x05fe;
                device_value = 0x097e; replay_value = 0x09fe } ];
        g_trace =
          Some
            { g_steps = 5; g_final_r4 = 0x05fe;
              g_cf_dests = [];
              g_inputs = [] } } );
    ( "fire-sensor tamper corpus: truncated, forged MAC",
      { g_accepted = false;
        g_findings =
          [ Replay_failed "malformed report: Oplog.word_at: 0x05fc outside OR" ];
        g_trace = None } ) ]

let finding = Alcotest.testable C.Verifier.pp_finding ( = )

let check_golden name (g : golden) (o : C.Verifier.outcome) =
  check_bool (name ^ ": accepted") g.g_accepted o.C.Verifier.accepted;
  Alcotest.(check (list finding))
    (name ^ ": findings") g.g_findings o.C.Verifier.findings;
  match g.g_trace, o.C.Verifier.trace with
  | None, None -> ()
  | Some g, Some t ->
    check_int (name ^ ": step count") g.g_steps t.C.Verifier.step_count;
    check_int (name ^ ": final r4") g.g_final_r4 t.C.Verifier.final_r4;
    Alcotest.(check (list int))
      (name ^ ": cf dests") g.g_cf_dests t.C.Verifier.cf_dests;
    Alcotest.(check (list int))
      (name ^ ": inputs") g.g_inputs t.C.Verifier.inputs
  | Some _, None -> Alcotest.failf "%s: expected a trace" name
  | None, Some _ -> Alcotest.failf "%s: expected no trace" name

(* each case on the reference path, the cached path, and twice through one
   scratch arena (a fresh bind, then a reset) *)
let test_golden_replays () =
  let cases = Lazy.force golden_cases in
  check_int "one golden per case" (List.length goldens) (List.length cases);
  let scratch = C.Verifier.scratch () in
  List.iter2
    (fun (name, built, report) (golden_name, g) ->
       Alcotest.(check string) "case order" golden_name name;
       let reference = C.Verifier.plan ~decode_cache:false built in
       let cached = C.Verifier.plan built in
       List.iter
         (fun (cfg, o) -> check_golden (name ^ " [" ^ cfg ^ "]") g o)
         [ ("reference", C.Verifier.verify_plan reference report);
           ("cached", C.Verifier.verify_plan ~keep_trace:false cached report);
           ("scratch",
            C.Verifier.verify_plan ~keep_trace:false ~scratch cached report);
           ("scratch reset",
            C.Verifier.verify_plan ~keep_trace:false ~scratch cached report) ])
    cases goldens

(* DESIGN 5d: a replay allocates nothing proportional to the execution.
   A warm-scratch fire-sensor replay without step retention executes
   ~1.3k instructions; what it may allocate is the log view, the log and
   shadow-stack lists, and the oracle's per-input bookkeeping. *)
let test_replay_allocation () =
  let run = Apps.run Apps.fire_sensor in
  let report = A.Device.attest run.Apps.device ~challenge:"alloc" in
  let plan = C.Verifier.plan run.Apps.built in
  let scratch = C.Verifier.scratch () in
  let replay () =
    C.Verifier.replay_outcome ~keep_trace:false ~scratch plan report
  in
  ignore (replay () : C.Verifier.outcome);
  let before = Gc.minor_words () in
  let o = replay () in
  let words = Gc.minor_words () -. before in
  check_bool "accepted" true o.C.Verifier.accepted;
  check_bool
    (Printf.sprintf "minor words per replay %.0f <= 2500" words)
    true (words <= 2500.)

(* ---------------------------------------------------------------- *)
(* Step budget. On the device, [Cpu.run ~max_steps:n] accepts a run
   that halts on its n-th step; a replay under [~max_steps:n] must
   accept it too, and reject the same run one step short, on every
   replay loop: the per-step loop (byte-level, or cached with
   [keep_trace]) and the fused loop (cached, no trace).               *)

let budget_configs =
  [ ("cached, trace", true, true); ("cached, no trace", true, false);
    ("decoded, trace", false, true); ("decoded, no trace", false, false) ]

let budget_case =
  lazy
    (let run = Apps.run Apps.fire_sensor in
     let report = A.Device.attest run.Apps.device ~challenge:"budget" in
     let o = C.Verifier.verify_plan (C.Verifier.plan run.Apps.built) report in
     match o.C.Verifier.trace with
     | Some t when o.C.Verifier.accepted ->
       (run.Apps.built, report, t.C.Verifier.step_count)
     | _ -> Alcotest.fail "the unbounded replay must accept")

let replay_under_budget max_steps =
  let built, report, _ = Lazy.force budget_case in
  List.map
    (fun (cfg, decode_cache, keep_trace) ->
       ( cfg,
         C.Verifier.verify_plan ~keep_trace
           (C.Verifier.plan ~decode_cache ~max_steps built)
           report ))
    budget_configs

let test_budget_last_step_accepted () =
  let _, _, steps = Lazy.force budget_case in
  List.iter
    (fun (cfg, o) ->
       check_golden
         (Printf.sprintf "max_steps %d [%s]" steps cfg)
         (List.assoc "fire-sensor benign" goldens)
         o)
    (replay_under_budget steps)

let test_budget_one_step_fewer_rejected () =
  let _, _, steps = Lazy.force budget_case in
  List.iter
    (fun (cfg, o) ->
       let name = Printf.sprintf "max_steps %d [%s]" (steps - 1) cfg in
       check_bool (name ^ ": rejected") false o.C.Verifier.accepted;
       Alcotest.(check (list finding))
         (name ^ ": findings")
         [ C.Verifier.Replay_failed "replay exceeded its step budget" ]
         o.C.Verifier.findings;
       match o.C.Verifier.trace with
       | Some t ->
         check_int (name ^ ": steps replayed") (steps - 1)
           t.C.Verifier.step_count
       | None -> Alcotest.failf "%s: expected a trace" name)
    (replay_under_budget (steps - 1))

(* ---------------------------------------------------------------- *)
(* Bad-opcode regression.                                            *)

let bad_opcode_op = {|
    entry:
        .word 0x1380              ; undecodable; faults before the exit
        br #__op_exit
    |}

let test_bad_opcode_no_spurious_shadow_stack () =
  let built = C.Pipeline.build ~op:(Asm_parse.parse bad_opcode_op) () in
  let device = C.Pipeline.device built in
  let result = A.Device.run_operation device in
  check_bool "device run faults" true (not result.A.Device.completed);
  (* a key-holding attacker claims the faulting run completed *)
  let report = A.Device.attest device ~challenge:"bad-opcode" in
  let forged = Forge.token built { report with A.Pox.exec = true } in
  let outcome = C.Verifier.verify_plan (C.Verifier.plan built) forged in
  check_bool "rejected" true (not outcome.C.Verifier.accepted);
  check_bool "replay failure names the opcode" true
    (List.exists
       (fun f ->
          match f with
          | C.Verifier.Replay_failed msg ->
            String.length msg >= 25
            && String.sub msg 11 14 = "invalid opcode"
          | _ -> false)
       outcome.C.Verifier.findings);
  check_bool "no spurious shadow-stack finding" true
    (not
       (List.exists
          (fun f ->
             match f with
             | C.Verifier.Shadow_stack_violation _ -> true
             | _ -> false)
          outcome.C.Verifier.findings));
  (* the faulting step retired no instruction and must say so *)
  (match outcome.C.Verifier.trace with
   | None -> Alcotest.fail "expected a trace from the failed replay"
   | Some t ->
     (match List.rev t.C.Verifier.steps with
      | last :: _ ->
        check_bool "faulting step has s_instr = None" true
          (last.C.Verifier.s_instr = None)
      | [] -> Alcotest.fail "expected at least one replayed step"));
  (* the same fault under the cacheless plan tells the same story *)
  let reference =
    C.Verifier.verify_plan (C.Verifier.plan ~decode_cache:false built) forged
  in
  check_bool "reference path agrees" true
    (reference.C.Verifier.findings = outcome.C.Verifier.findings)

let suites =
  [ ("replay-equiv",
     [ Alcotest.test_case "verdicts: cache x trace retention" `Quick
         test_cache_and_trace_equivalence;
       Alcotest.test_case "steps identical modulo fetches" `Quick
         test_step_equivalence_modulo_fetch;
       Alcotest.test_case "fleet: domains 1 = domains 4" `Quick
         test_fleet_domains_equivalence;
       Alcotest.test_case "bad opcode: no spurious shadow stack" `Quick
         test_bad_opcode_no_spurious_shadow_stack;
       Alcotest.test_case "golden replays" `Quick test_golden_replays;
       Alcotest.test_case "replay allocation bound" `Quick
         test_replay_allocation;
       Alcotest.test_case "budget: halting on the last allowed step accepted"
         `Quick test_budget_last_step_accepted;
       Alcotest.test_case "budget: one step fewer rejected" `Quick
         test_budget_one_step_fewer_rejected ]) ]
