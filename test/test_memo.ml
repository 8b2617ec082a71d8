(* Verdict memoization: the verified-log cache must never change a
   verdict — only skip the replay that recomputes it.

   Three layers are exercised:
   - the Memo structure itself: entry and byte bounds, LRU recency,
     namespace isolation, and the waiters-are-hits rule shared with the
     plan LRU (concurrent lookups of one missing digest replay once,
     no double counting);
   - the key derivation: the canonical log digest covers exactly the
     replay's inputs (layout words + OR bytes), never the per-session
     challenge/token material, and the streaming wire-decode digest is
     bit-identical to the verifier's;
   - soundness end to end: a memo hit and a fresh replay agree on
     verdict, findings and step count across random programs, tampered
     logs and evictions mid-stream (QCheck), a forged token never
     launders a cached accept, and a replayed report with a stale
     challenge dies at the gateway's freshness gate before the memo is
     ever consulted. *)

module M = Dialed_msp430
module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module N = Dialed_net
module Swarm = Dialed_swarm.Swarm
module Apps = Dialed_apps.Apps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------------------------------------------------------- *)
(* Memo structure: bounds, recency, namespaces, concurrency.          *)

let mk_entry ?(accepted = true) ?(findings = []) steps =
  { F.Memo.e_accepted = accepted; e_findings = findings; e_steps = steps }

let one_shard ~entries ~bytes =
  { F.Memo.max_entries = entries; max_bytes = bytes; shards = 1 }

let dg i = Printf.sprintf "digest-%02d" i

let lookup h i = F.Memo.find_or_replay h ~digest:(dg i) (fun () -> mk_entry i)

let test_entry_bound_lru () =
  let memo =
    F.Memo.create ~config:(one_shard ~entries:4 ~bytes:(1 lsl 30)) ()
  in
  let h = F.Memo.handle memo ~ns:"ns" in
  for i = 0 to 5 do
    let e, outcome = lookup h i in
    check_int (Printf.sprintf "entry %d is its own" i) i e.F.Memo.e_steps;
    check_bool "first sight is a miss" true (outcome = `Miss)
  done;
  let s = F.Memo.stats memo in
  check_int "resident capped" 4 s.F.Memo.entries;
  check_int "two evictions" 2 s.F.Memo.evictions;
  check_int "six misses" 6 s.F.Memo.misses;
  check_int "no hits yet" 0 s.F.Memo.hits;
  check_bool "freshest entry hits" true (snd (lookup h 5) = `Hit);
  check_bool "evicted entry misses" true (snd (lookup h 0) = `Miss)

let test_lru_recency () =
  let memo =
    F.Memo.create ~config:(one_shard ~entries:2 ~bytes:(1 lsl 30)) ()
  in
  let h = F.Memo.handle memo ~ns:"ns" in
  ignore (lookup h 0);
  ignore (lookup h 1);
  (* touching 0 makes 1 the LRU victim when 2 arrives *)
  check_bool "0 hits" true (snd (lookup h 0) = `Hit);
  ignore (lookup h 2);
  check_bool "0 survived" true (snd (lookup h 0) = `Hit);
  check_bool "1 was evicted" true (snd (lookup h 1) = `Miss)

let big_entry steps n =
  mk_entry ~accepted:false
    ~findings:[ C.Verifier.Replay_failed (String.make n 'x') ]
    steps

let test_byte_bound () =
  let memo =
    F.Memo.create ~config:(one_shard ~entries:1000 ~bytes:400) ()
  in
  let h = F.Memo.handle memo ~ns:"n" in
  (* two ~360-byte entries exceed 400 together: the older one goes *)
  ignore (F.Memo.find_or_replay h ~digest:"a" (fun () -> big_entry 1 200));
  ignore (F.Memo.find_or_replay h ~digest:"b" (fun () -> big_entry 2 200));
  let s = F.Memo.stats memo in
  check_int "one resident under byte pressure" 1 s.F.Memo.entries;
  check_int "one eviction" 1 s.F.Memo.evictions;
  check_bool "survivor is the newer" true
    (snd (F.Memo.find_or_replay h ~digest:"b" (fun () -> assert false))
     = `Hit);
  (* a single entry larger than the whole budget stays resident alone *)
  ignore (F.Memo.find_or_replay h ~digest:"huge" (fun () -> big_entry 3 600));
  let s = F.Memo.stats memo in
  check_int "oversize entry resident alone" 1 s.F.Memo.entries;
  check_bool "bytes overshoot is soft" true (s.F.Memo.bytes > 400);
  (* the next insert pushes the oversize one out again *)
  ignore (F.Memo.find_or_replay h ~digest:"small" (fun () -> mk_entry 4));
  check_bool "oversize evicted by the next arrival" true
    (snd (F.Memo.find_or_replay h ~digest:"huge" (fun () -> big_entry 5 600))
     = `Miss)

let test_namespace_isolation () =
  let memo = F.Memo.create () in
  let ha = F.Memo.handle memo ~ns:"plan-a" in
  let hb = F.Memo.handle memo ~ns:"plan-b" in
  let ea, oa = F.Memo.find_or_replay ha ~digest:"d" (fun () -> mk_entry 1) in
  let eb, ob = F.Memo.find_or_replay hb ~digest:"d" (fun () -> mk_entry 2) in
  check_bool "both namespaces miss" true (oa = `Miss && ob = `Miss);
  check_int "a keeps its entry" 1 ea.F.Memo.e_steps;
  check_int "b keeps its entry" 2 eb.F.Memo.e_steps;
  let ea', oa' = F.Memo.find_or_replay ha ~digest:"d" (fun () -> mk_entry 9) in
  check_bool "a hits its own" true (oa' = `Hit && ea'.F.Memo.e_steps = 1)

(* the plan-LRU rule, restated for memo entries: a lookup that arrives
   while a replay for the same digest is in flight waits and counts as a
   hit — exactly one miss per replay actually run, never two *)
let test_waiters_are_hits () =
  let memo = F.Memo.create ~config:(one_shard ~entries:8 ~bytes:(1 lsl 20)) () in
  let h = F.Memo.handle memo ~ns:"ns" in
  let started = Atomic.make false in
  let replays = Atomic.make 0 in
  let t =
    Thread.create
      (fun () ->
         ignore
           (F.Memo.find_or_replay h ~digest:"slow" (fun () ->
                Atomic.set started true;
                Thread.delay 0.1;
                Atomic.incr replays;
                mk_entry 7)))
      ()
  in
  while not (Atomic.get started) do Thread.yield () done;
  let e, outcome =
    F.Memo.find_or_replay h ~digest:"slow" (fun () ->
        Atomic.incr replays;
        mk_entry 999)
  in
  Thread.join t;
  check_bool "waiter took the hit path" true (outcome = `Hit);
  check_int "waiter got the builder's entry" 7 e.F.Memo.e_steps;
  check_int "exactly one replay ran" 1 (Atomic.get replays);
  let s = F.Memo.stats memo in
  check_int "one miss (the builder)" 1 s.F.Memo.misses;
  check_int "one hit (the waiter)" 1 s.F.Memo.hits;
  check_int "no double count" 2 (s.F.Memo.hits + s.F.Memo.misses)

let test_failed_replay_not_cached () =
  let memo = F.Memo.create ~config:(one_shard ~entries:8 ~bytes:(1 lsl 20)) () in
  let h = F.Memo.handle memo ~ns:"ns" in
  (match F.Memo.find_or_replay h ~digest:"d" (fun () -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "replay exception swallowed");
  let s = F.Memo.stats memo in
  check_int "failure counted as a miss" 1 s.F.Memo.misses;
  check_int "failure cached nothing" 0 s.F.Memo.entries;
  (* a waiter blocked on a failing replay retries as the new replayer *)
  let attempt = Atomic.make 0 in
  let barrier = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
         try
           ignore
             (F.Memo.find_or_replay h ~digest:"e" (fun () ->
                  Atomic.set barrier true;
                  Thread.delay 0.1;
                  Atomic.incr attempt;
                  failwith "first replay dies"))
         with Failure _ -> ())
      ()
  in
  while not (Atomic.get barrier) do Thread.yield () done;
  let e, outcome =
    F.Memo.find_or_replay h ~digest:"e" (fun () ->
        Atomic.incr attempt;
        mk_entry 42)
  in
  Thread.join t;
  check_bool "waiter became the new replayer" true (outcome = `Miss);
  check_int "both replays ran" 2 (Atomic.get attempt);
  check_int "second attempt's entry cached" 42 e.F.Memo.e_steps;
  let s = F.Memo.stats memo in
  check_int "three misses total, no phantom hits" 3 s.F.Memo.misses;
  check_int "no hits" 0 s.F.Memo.hits

let test_stats_shape () =
  check_bool "empty hit rate is 0" true
    (F.Memo.hit_rate
       { F.Memo.hits = 0; misses = 0; evictions = 0; entries = 0; bytes = 0 }
     = 0.0);
  let s =
    { F.Memo.hits = 3; misses = 1; evictions = 2; entries = 1; bytes = 128 }
  in
  check_bool "hit rate" true (abs_float (F.Memo.hit_rate s -. 0.75) < 1e-9);
  let json = F.Memo.stats_to_json s in
  List.iter
    (fun field ->
       check_bool (field ^ " in json") true
         (contains json ("\"" ^ field ^ "\"")))
    [ "hits"; "misses"; "evictions"; "entries"; "bytes"; "hit_rate" ]

(* ---------------------------------------------------------------- *)
(* Key derivation: what the digest covers, and what it must not.      *)

let fire_sensor = List.find (fun a -> a.Apps.name = "fire-sensor") Apps.all

let fs_built =
  lazy
    (let compiled =
       Dialed_minic.Minic.compile ~entry:fire_sensor.Apps.entry
         fire_sensor.Apps.source
     in
     C.Pipeline.build ~variant:C.Pipeline.Full
       ~data:compiled.Dialed_minic.Minic.data
       ~op:compiled.Dialed_minic.Minic.op
       ~or_min:fire_sensor.Apps.or_min ())

(* a fire-sensor attestation over a chosen ADC trace: distinct [shape]s
   read distinct samples, so their logs (and digests) differ *)
let fs_report ?(shape = 0) challenge =
  let device = C.Pipeline.device (Lazy.force fs_built) in
  let base = 520 + (3 * shape) in
  M.Peripherals.feed_adc (A.Device.board device)
    [ base; base + 2; base + 4; base + 2 ];
  ignore
    (A.Device.run_operation ~args:fire_sensor.Apps.benign_args device
     : A.Device.run_result);
  A.Device.attest device ~challenge

let test_wire_digest_pins_verifier_digest () =
  let r = fs_report "memo-wire" in
  let wire = A.Wire.encode r in
  match A.Wire.decode_digested wire with
  | Error e -> Alcotest.failf "decode_digested: %s" (A.Wire.error_to_string e)
  | Ok (r', d) ->
    check_bool "decoded report unchanged" true (r' = r);
    check_int "raw sha-256" 32 (String.length d);
    check_bool "streamed digest = verifier digest" true
      (d = C.Verifier.log_digest r);
    (match A.Wire.decode wire with
     | Ok r'' -> check_bool "decode agrees" true (r'' = r')
     | Error e ->
       Alcotest.failf "decode: %s" (A.Wire.error_to_string e))

let test_digest_covers_log_not_session () =
  (* same log under different challenges: token and challenge differ,
     digest must not — that equality is exactly what makes the repeat
     economy real (a fleet re-attests standing runs under ever-fresh
     challenges) *)
  let r1 = fs_report ~shape:0 "challenge-one" in
  let r2 = fs_report ~shape:0 "challenge-two" in
  check_bool "challenges differ" true
    (r1.A.Pox.challenge <> r2.A.Pox.challenge);
  check_bool "tokens differ" true (r1.A.Pox.token <> r2.A.Pox.token);
  check_bool "digests agree" true
    (C.Verifier.log_digest r1 = C.Verifier.log_digest r2);
  (* different sensor traces: different OR bytes, different digest *)
  let r3 = fs_report ~shape:1 "challenge-three" in
  check_bool "distinct logs get distinct digests" true
    (C.Verifier.log_digest r1 <> C.Verifier.log_digest r3);
  (* any OR byte flip moves the digest *)
  let flipped =
    let b = Bytes.of_string r1.A.Pox.or_data in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x80));
    { r1 with A.Pox.or_data = Bytes.to_string b }
  in
  check_bool "or_data flip moves the digest" true
    (C.Verifier.log_digest r1 <> C.Verifier.log_digest flipped)

let test_plan_namespace_separates_plans () =
  let built = Lazy.force fs_built in
  let p1 = C.Verifier.plan built in
  let p2 = C.Verifier.plan built in
  check_bool "same build, same knobs: shared namespace" true
    (C.Verifier.plan_memo_ns p1 = C.Verifier.plan_memo_ns p2);
  let p3 = C.Verifier.plan ~max_steps:999_999 built in
  check_bool "max_steps is part of the namespace" true
    (C.Verifier.plan_memo_ns p1 <> C.Verifier.plan_memo_ns p3);
  let policy =
    C.Verifier.{ policy_name = "never"; check = (fun _ -> Ok ()) }
  in
  let p4 = C.Verifier.plan ~policies:[ policy ] built in
  let p5 = C.Verifier.plan ~policies:[ policy ] built in
  check_bool "plans with policies never share a namespace" true
    (C.Verifier.plan_memo_ns p4 <> C.Verifier.plan_memo_ns p5)

(* ---------------------------------------------------------------- *)
(* Fleet integration: counters, equivalence, negative caching.        *)

let same_verdicts (a : F.Fleet.summary) (b : F.Fleet.summary) =
  List.length a.F.Fleet.verdicts = List.length b.F.Fleet.verdicts
  && List.for_all2
       (fun (x : F.Fleet.verdict) (y : F.Fleet.verdict) ->
          x.F.Fleet.device_id = y.F.Fleet.device_id
          && x.F.Fleet.accepted = y.F.Fleet.accepted
          && x.F.Fleet.findings = y.F.Fleet.findings
          && x.F.Fleet.replay_steps = y.F.Fleet.replay_steps)
       a.F.Fleet.verdicts b.F.Fleet.verdicts

let flip_or_byte ~at (report : A.Pox.report) =
  let or_data = Bytes.of_string report.A.Pox.or_data in
  let at = (at + Bytes.length or_data) mod Bytes.length or_data in
  Bytes.set or_data at
    (Char.chr (Char.code (Bytes.get or_data at) lxor 0xFF));
  { report with A.Pox.or_data = Bytes.to_string or_data }

let vuln_built = lazy (Apps.build Apps.syringe_pump_vuln)

(* the mixed fleet from test_fleet, shaped for the memo: two repeating
   log shapes (benign / attacked — one replay each, the rest hits,
   including the negatively-cached attack rejections) plus forged-token
   reports that must die in precheck without ever touching the memo *)
let mixed_batch built n =
  List.init n (fun i ->
      let device = C.Pipeline.device built in
      let args =
        if i mod 4 = 2 then Apps.attack_args_syringe_vuln
        else Apps.syringe_pump_vuln.Apps.benign_args
      in
      ignore (A.Device.run_operation ~args device : A.Device.run_result);
      let report =
        A.Device.attest device ~challenge:(Printf.sprintf "memo-%03d" i)
      in
      let report =
        if i mod 4 = 3 then flip_or_byte ~at:(-24) report else report
      in
      (Printf.sprintf "dev-%03d" i, report))

let test_batch_counters_and_equivalence () =
  let built = Lazy.force vuln_built in
  let batch = mixed_batch built 16 in
  let plan = F.Plan.of_built built in
  let off = F.Fleet.verify_batch ~domains:2 plan batch in
  let memo = F.Memo.create () in
  let on = F.Fleet.verify_batch ~domains:2 ~memo plan batch in
  check_bool "memo-on = memo-off, verdict for verdict" true
    (same_verdicts off on);
  let m = on.F.Fleet.metrics in
  (* 8 benign + 4 attacked reach the memo (two distinct digests); the 4
     forged-token reports are precheck rejections and never look up *)
  check_int "two replays ran" 2 m.F.Metrics.memo_misses;
  check_int "ten hits (negative results included)" 10 m.F.Metrics.memo_hits;
  check_int "memo-off counters stay zero" 0
    (off.F.Fleet.metrics.F.Metrics.memo_hits
     + off.F.Fleet.metrics.F.Metrics.memo_misses);
  check_bool "attack rejections negatively cached" true
    (List.mem_assoc "oob-access" m.F.Metrics.rejects_by_kind);
  check_bool "counters in metrics json" true
    (contains (F.Metrics.to_json m) "\"memo_hits\":10");
  (* the memo outlives the batch: a second pass is all hits *)
  let again = F.Fleet.verify_batch ~domains:2 ~memo plan batch in
  check_bool "second pass equal too" true (same_verdicts off again);
  check_int "second pass: no replays" 0
    again.F.Fleet.metrics.F.Metrics.memo_misses;
  check_int "second pass: all lookups hit" 12
    again.F.Fleet.metrics.F.Metrics.memo_hits

let test_forged_token_never_launders_cached_accept () =
  let built = Lazy.force vuln_built in
  let device = C.Pipeline.device built in
  ignore
    (A.Device.run_operation ~args:Apps.syringe_pump_vuln.Apps.benign_args
       device
     : A.Device.run_result);
  let report = A.Device.attest device ~challenge:"memo-launder" in
  let plan = F.Plan.of_built built in
  let memo = F.Memo.create () in
  (* prime the memo with the accept for this exact log digest *)
  let primed = F.Fleet.verify_batch ~memo plan [ ("honest", report) ] in
  check_bool "honest report accepted" true
    (List.for_all (fun (v : F.Fleet.verdict) -> v.F.Fleet.accepted)
       primed.F.Fleet.verdicts);
  check_int "accept is cached" 1 primed.F.Fleet.metrics.F.Metrics.memo_misses;
  (* same log bytes, corrupted token: precheck must reject before the
     memo is consulted — the cached accept is unreachable *)
  let forged =
    let t = Bytes.of_string report.A.Pox.token in
    Bytes.set t 5 (Char.chr (Char.code (Bytes.get t 5) lxor 0x01));
    { report with A.Pox.token = Bytes.to_string t }
  in
  let s = F.Fleet.verify_batch ~memo plan [ ("forger", forged) ] in
  (match s.F.Fleet.verdicts with
   | [ v ] ->
     check_bool "forged token rejected" false v.F.Fleet.accepted;
     check_bool "rejected as bad-token" true
       (List.exists
          (fun f ->
             match f with C.Verifier.Bad_token _ -> true | _ -> false)
          v.F.Fleet.findings)
   | _ -> Alcotest.fail "one verdict expected");
  check_int "memo never consulted for the forgery" 0
    (s.F.Fleet.metrics.F.Metrics.memo_hits
     + s.F.Fleet.metrics.F.Metrics.memo_misses)

let test_stream_snapshot_and_digest_param () =
  let built = Lazy.force vuln_built in
  let plan = F.Plan.of_built built in
  let memo = F.Memo.create () in
  let st = F.Fleet.stream ~domains:1 ~memo plan in
  let batch = mixed_batch built 8 in
  List.iter
    (fun (id, r) ->
       (* feed the precomputed digest for every other report: the wire
          path (decode_digested) and the self-computed path must mix *)
       match A.Wire.decode_digested (A.Wire.encode r) with
       | Ok (r', d) when String.length id mod 2 = 0 ->
         F.Fleet.stream_submit ~digest:d st id r'
       | _ -> F.Fleet.stream_submit st id r)
    batch;
  (* drain, then snapshot: in-flight work has landed, counters final *)
  let rec drain () =
    if F.Fleet.stream_pending st > 0 then begin
      ignore (F.Fleet.stream_poll st : F.Fleet.verdict list);
      Thread.yield ();
      drain ()
    end
  in
  drain ();
  let live = F.Fleet.stream_snapshot st in
  (* 4 benign + 2 attacked consult the memo; 2 forged die in precheck *)
  check_int "snapshot misses" 2 live.F.Metrics.memo_misses;
  check_int "snapshot hits" 4 live.F.Metrics.memo_hits;
  let summary = F.Fleet.stream_close st in
  check_int "close agrees with snapshot" 2
    summary.F.Fleet.metrics.F.Metrics.memo_misses;
  check_int "close hits" 4 summary.F.Fleet.metrics.F.Metrics.memo_hits;
  (* and the whole run matches a memo-off batch *)
  let off = F.Fleet.verify_batch plan batch in
  check_bool "stream verdicts = memo-off" true (same_verdicts off summary)

let test_evictions_mid_stream_keep_verdicts () =
  let built = Lazy.force vuln_built in
  let plan = F.Plan.of_built built in
  (* four distinct shapes cycled through a one-entry memo: every lookup
     evicts the previous entry, and the verdicts must not care *)
  let shapes = mixed_batch built 4 in
  let batch =
    List.concat_map
      (fun round ->
         List.mapi
           (fun i (_, r) -> (Printf.sprintf "ev-%d-%d" round i, r))
           shapes)
      [ 0; 1; 2 ]
  in
  let off = F.Fleet.verify_batch plan batch in
  let memo = F.Memo.create ~config:(one_shard ~entries:1 ~bytes:(1 lsl 20)) () in
  let on = F.Fleet.verify_batch ~domains:1 ~memo plan batch in
  check_bool "thrashing memo still agrees" true (same_verdicts off on);
  let s = F.Memo.stats memo in
  check_bool "evictions actually happened" true (s.F.Memo.evictions > 0);
  check_int "one entry resident" 1 s.F.Memo.entries

(* ---------------------------------------------------------------- *)
(* QCheck: memo hit = fresh replay, across random programs, strong-
   attacker tampering (consistent token over a doctored log — the
   memoizable rejection kind) and forced evictions mid-batch.         *)

let prop_memo_equals_fresh =
  QCheck.Test.make
    ~name:"memo-on = memo-off across random programs and tampering"
    ~count:10
    QCheck.(
      triple Test_randprog.arb_program
        (pair (int_range (-40) 40) (int_range (-40) 40))
        (int_range 1 10_000))
    (fun (stmts, (a0, a1), tamper_seed) ->
       let source = Test_randprog.program_source stmts in
       let compiled = Dialed_minic.Minic.compile source in
       let built =
         C.Pipeline.build ~variant:C.Pipeline.Full
           ~data:compiled.Dialed_minic.Minic.data
           ~op:compiled.Dialed_minic.Minic.op ~or_min:0x0280 ()
       in
       let attest args challenge =
         let device = C.Pipeline.device built in
         ignore (A.Device.run_operation ~args device : A.Device.run_result);
         A.Device.attest device ~challenge
       in
       let r1 = attest [ a0; a1 ] "memo-q1" in
       let r2 = attest [ a1; a0 ] "memo-q2" in
       QCheck.assume (String.length r1.A.Pox.or_data > 0);
       (* strong attacker: doctor the log, re-MAC with the device key —
          the rejection (if any) is replay-stage, i.e. exactly the kind
          the memo is allowed to cache *)
       let tampered =
         let b = Bytes.of_string r1.A.Pox.or_data in
         let off = tamper_seed mod Bytes.length b in
         Bytes.set b off
           (Char.chr
              (Char.code (Bytes.get b off) lxor (1 lsl (tamper_seed mod 8))));
         Forge.token built
           { r1 with A.Pox.or_data = Bytes.to_string b }
       in
       let batch =
         [ ("q-0", r1); ("q-1", r2); ("q-2", tampered); ("q-3", r1);
           ("q-4", tampered); ("q-5", r2) ]
       in
       let plan = F.Plan.of_built built in
       let off = F.Fleet.verify_batch plan batch in
       (* a one-entry memo: the three digests thrash it, so repeats mix
          genuine hits with evict-and-replay misses *)
       let tiny =
         F.Memo.create ~config:(one_shard ~entries:1 ~bytes:(1 lsl 20)) ()
       in
       let on_tiny = F.Fleet.verify_batch ~memo:tiny plan batch in
       (* and a roomy one on two domains: repeats are hits *)
       let roomy = F.Memo.create () in
       let on_roomy = F.Fleet.verify_batch ~domains:2 ~memo:roomy plan batch in
       if not (same_verdicts off on_tiny) then
         QCheck.Test.fail_reportf
           "thrashing memo diverged from fresh replay on:\n%s" source;
       if not (same_verdicts off on_roomy) then
         QCheck.Test.fail_reportf
           "roomy memo diverged from fresh replay on:\n%s" source;
       true)

(* ---------------------------------------------------------------- *)
(* Gateway: memo + plan-cache counters in stats, stale-challenge
   replays dead at the freshness gate, swarm repeat knob.             *)

let make_device () =
  let d = C.Pipeline.device (Lazy.force fs_built) in
  fire_sensor.Apps.setup d;
  d

let client_config =
  { N.Client.default_config with
    N.Client.read_deadline = Some 5.0; backoff_base = 0.01;
    backoff_cap = 0.05 }

let with_memo_gateway f =
  let pcache = F.Plan.cache () in
  let plan = F.Plan.find_or_build pcache (Lazy.force fs_built) in
  let config =
    { N.Server.default_config with
      N.Server.domains = 1; window = 4; read_deadline = Some 5.0;
      max_conns = 64; args = fire_sensor.Apps.benign_args;
      memo = Some F.Memo.default_config; plan_cache = Some pcache }
  in
  let listener, dial = N.Transport.loopback_listener () in
  let server = N.Server.create ~config ~plan listener in
  N.Server.start server;
  Fun.protect
    ~finally:(fun () -> ignore (N.Server.stop server : N.Server.stats))
    (fun () -> f ~server ~dial)

let test_gateway_memo_and_plan_cache_stats () =
  with_memo_gateway (fun ~server ~dial ->
      let conn = dial () in
      let rounds =
        N.Client.attest_rounds ~config:client_config ~device:make_device
          ~device_id:"dev-memo" ~rounds:4 conn
      in
      N.Transport.close conn;
      check_int "four rounds" 4 (Array.length rounds.N.Client.results);
      Array.iter
        (fun (r : N.Client.pipelined_round) ->
           check_bool "round accepted" true r.N.Client.p_accepted)
        rounds.N.Client.results;
      let stats = N.Server.stats server in
      (match stats.N.Server.memo with
       | None -> Alcotest.fail "memo armed but stats carry none"
       | Some ms ->
         check_int "one replay for four identical logs" 1 ms.F.Memo.misses;
         check_int "three hits" 3 ms.F.Memo.hits;
         check_int "one entry resident" 1 ms.F.Memo.entries);
      (* the stream snapshot carries the same counters *)
      check_int "verify metrics agree (hits)" 3
        stats.N.Server.verify.F.Metrics.memo_hits;
      check_int "verify metrics agree (misses)" 1
        stats.N.Server.verify.F.Metrics.memo_misses;
      (match stats.N.Server.plan_cache with
       | None -> Alcotest.fail "plan cache handed over but stats carry none"
       | Some c ->
         check_int "one plan resident" 1 c.F.Plan.cc_resident;
         check_int "one plan build" 1 c.F.Plan.cc_misses);
      let json = N.Server.stats_to_json stats in
      check_bool "memo counters in stats json" true
        (contains json "\"memo\": {\"hits\":3,\"misses\":1");
      check_bool "plan-cache counters in stats json" true
        (contains json "\"plan_cache\": {\"hits\":0,\"misses\":1"))

let test_gateway_stale_replay_rejected_despite_cache () =
  with_memo_gateway (fun ~server ~dial ->
      let conn = dial () in
      let captured = ref None in
      (* round 1 is honest (and seeds the memo with this log's accept);
         every later round replays round 1's exact report — a stale,
         already-consumed challenge carrying a perfectly valid token
         over a digest the memo has cached as accepted *)
      let mangle r =
        match !captured with
        | None -> captured := Some r; r
        | Some stale -> stale
      in
      let config =
        { client_config with N.Client.attempts = 1; mangle = Some mangle }
      in
      let rounds =
        N.Client.attest_rounds ~config ~device:make_device
          ~device_id:"dev-replayer" ~rounds:3 conn
      in
      N.Transport.close conn;
      (match rounds.N.Client.results with
       | [| r1; r2; r3 |] ->
         check_bool "honest round accepted" true r1.N.Client.p_accepted;
         List.iter
           (fun (r : N.Client.pipelined_round) ->
              check_bool "stale replay rejected" false r.N.Client.p_accepted;
              check_bool "rejected for freshness, not replayed verdict" true
                (List.exists (fun (k, _) -> k = "bad-token") r.N.Client.p_findings))
           [ r2; r3 ]
       | _ -> Alcotest.fail "three rounds expected");
      (* the stale replays died at the gate: the memo saw exactly one
         lookup (round 1's miss), its cached accept was never consulted *)
      let stats = N.Server.stats server in
      match stats.N.Server.memo with
      | None -> Alcotest.fail "memo stats missing"
      | Some ms ->
        check_int "one miss (the honest round)" 1 ms.F.Memo.misses;
        check_int "stale replays never reached the memo" 0 ms.F.Memo.hits)

let test_swarm_repeat_knob_feeds_memo () =
  with_memo_gateway (fun ~server ~dial ->
      let distinct = 3 in
      let config =
        { Swarm.default_config with
          Swarm.clients = 9; rounds = 2; window = 2; concurrency = 3;
          distinct_logs = distinct; client = client_config }
      in
      (* a shape-respecting responder: provers folded onto one shape
         feed identical ADC traces, so their logs collide by design *)
      let respond ~client:_ ~shape =
        Swarm.cheap_responder
          ~build:(fun () ->
              let d = C.Pipeline.device (Lazy.force fs_built) in
              let base = 520 + (3 * shape) in
              M.Peripherals.feed_adc (A.Device.board d)
                [ base; base + 2; base + 4; base + 2 ];
              d)
          ()
      in
      let outcome = Swarm.run ~config ~dial ~respond () in
      check_int "no prover failed" 0 outcome.Swarm.clients_failed;
      check_int "all rounds accepted" 18 outcome.Swarm.rounds_accepted;
      let stats = N.Server.stats server in
      match stats.N.Server.memo with
      | None -> Alcotest.fail "memo stats missing"
      | Some ms ->
        check_int "one replay per distinct shape" distinct ms.F.Memo.misses;
        check_int "every repeat was a hit" (18 - distinct) ms.F.Memo.hits)

let suites =
  [ ("memo",
     [ Alcotest.test_case "entry bound + LRU" `Quick test_entry_bound_lru;
       Alcotest.test_case "LRU recency" `Quick test_lru_recency;
       Alcotest.test_case "byte bound" `Quick test_byte_bound;
       Alcotest.test_case "namespace isolation" `Quick
         test_namespace_isolation;
       Alcotest.test_case "waiters are hits" `Quick test_waiters_are_hits;
       Alcotest.test_case "failed replay not cached" `Quick
         test_failed_replay_not_cached;
       Alcotest.test_case "stats shape" `Quick test_stats_shape ]);
    ("memo-key",
     [ Alcotest.test_case "wire digest pins verifier digest" `Quick
         test_wire_digest_pins_verifier_digest;
       Alcotest.test_case "digest covers log, not session" `Quick
         test_digest_covers_log_not_session;
       Alcotest.test_case "plan namespace separation" `Quick
         test_plan_namespace_separates_plans ]);
    ("memo-fleet",
     [ Alcotest.test_case "batch counters + equivalence" `Quick
         test_batch_counters_and_equivalence;
       Alcotest.test_case "forged token never launders a cached accept"
         `Quick test_forged_token_never_launders_cached_accept;
       Alcotest.test_case "stream snapshot + wire digests" `Quick
         test_stream_snapshot_and_digest_param;
       Alcotest.test_case "evictions mid-stream keep verdicts" `Quick
         test_evictions_mid_stream_keep_verdicts;
       QCheck_alcotest.to_alcotest prop_memo_equals_fresh ]);
    ("memo-gateway",
     [ Alcotest.test_case "memo + plan-cache counters in stats" `Quick
         test_gateway_memo_and_plan_cache_stats;
       Alcotest.test_case "stale replay rejected despite cached accept"
         `Quick test_gateway_stale_replay_rejected_despite_cache;
       Alcotest.test_case "swarm repeat knob feeds the memo" `Quick
         test_swarm_repeat_knob_feeds_memo ]) ]
