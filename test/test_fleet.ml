(* Fleet batch verification: determinism across domain counts, plan
   sharing/caching, and metrics aggregation over a mixed benign/attacked
   batch built from the bundled applications. *)

module M = Dialed_msp430
module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module Apps = Dialed_apps.Apps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let flip_or_byte ~at (report : A.Pox.report) =
  let or_data = Bytes.of_string report.A.Pox.or_data in
  let at = (at + Bytes.length or_data) mod Bytes.length or_data in
  Bytes.set or_data at
    (Char.chr (Char.code (Bytes.get or_data at) lxor 0xFF));
  { report with A.Pox.or_data = Bytes.to_string or_data }

(* A mixed batch over the vulnerable pump firmware:
   - i mod 4 = 0,1  -> benign runs (accepted)
   - i mod 4 = 2    -> the Fig. 2 data-only attack (oob-access)
   - i mod 4 = 3    -> benign run with a forged log byte (bad-token) *)
let mixed_batch built n =
  List.init n (fun i ->
      let device = C.Pipeline.device built in
      let args =
        if i mod 4 = 2 then Apps.attack_args_syringe_vuln
        else Apps.syringe_pump_vuln.Apps.benign_args
      in
      ignore (A.Device.run_operation ~args device);
      let report =
        A.Device.attest device ~challenge:(Printf.sprintf "batch-%03d" i)
      in
      let report =
        if i mod 4 = 3 then flip_or_byte ~at:(-24) report else report
      in
      (Printf.sprintf "dev-%03d" i, report))

let vuln_built = lazy (Apps.build Apps.syringe_pump_vuln)

let test_determinism_across_domains () =
  let built = Lazy.force vuln_built in
  let batch = mixed_batch built 16 in
  let plan = F.Plan.of_built built in
  let serial = F.Fleet.verify_batch ~domains:1 plan batch in
  let parallel = F.Fleet.verify_batch ~domains:4 plan batch in
  check_int "verdict count (serial)" 16
    (List.length serial.F.Fleet.verdicts);
  List.iter2
    (fun (a : F.Fleet.verdict) (b : F.Fleet.verdict) ->
       Alcotest.(check string) "device order preserved" a.F.Fleet.device_id
         b.F.Fleet.device_id;
       check_bool
         (Printf.sprintf "%s: same verdict" a.F.Fleet.device_id)
         a.F.Fleet.accepted b.F.Fleet.accepted;
       check_bool
         (Printf.sprintf "%s: same findings" a.F.Fleet.device_id)
         true (a.F.Fleet.findings = b.F.Fleet.findings);
       check_int
         (Printf.sprintf "%s: same replay length" a.F.Fleet.device_id)
         a.F.Fleet.replay_steps b.F.Fleet.replay_steps)
    serial.F.Fleet.verdicts parallel.F.Fleet.verdicts

let test_mixed_batch_verdicts () =
  let built = Lazy.force vuln_built in
  let batch = mixed_batch built 16 in
  let plan = F.Plan.of_built built in
  let summary = F.Fleet.verify_batch ~domains:2 plan batch in
  List.iteri
    (fun i (v : F.Fleet.verdict) ->
       match i mod 4 with
       | 0 | 1 ->
         check_bool (v.F.Fleet.device_id ^ " benign accepted") true
           v.F.Fleet.accepted
       | 2 ->
         check_bool (v.F.Fleet.device_id ^ " attack rejected") false
           v.F.Fleet.accepted;
         check_bool (v.F.Fleet.device_id ^ " oob finding") true
           (List.exists
              (fun f ->
                 match f with C.Verifier.Oob_access _ -> true | _ -> false)
              v.F.Fleet.findings)
       | _ ->
         check_bool (v.F.Fleet.device_id ^ " forged log rejected") false
           v.F.Fleet.accepted;
         check_bool (v.F.Fleet.device_id ^ " token finding") true
           (List.exists
              (fun f ->
                 match f with C.Verifier.Bad_token _ -> true | _ -> false)
              v.F.Fleet.findings))
    summary.F.Fleet.verdicts

let test_metrics_aggregation () =
  let built = Lazy.force vuln_built in
  let n = 16 in
  let batch = mixed_batch built n in
  let plan = F.Plan.of_built built in
  let summary = F.Fleet.verify_batch ~domains:3 plan batch in
  let m = summary.F.Fleet.metrics in
  check_int "batch size" n m.F.Metrics.batch_size;
  check_int "accepted + rejected = batch" n
    (m.F.Metrics.accepted + m.F.Metrics.rejected);
  check_int "accepted" (n / 2) m.F.Metrics.accepted;
  check_int "rejects bucketed" m.F.Metrics.rejected
    (List.fold_left (fun acc (_, k) -> acc + k) 0 m.F.Metrics.rejects_by_kind);
  check_bool "oob-access bucket present" true
    (List.mem_assoc "oob-access" m.F.Metrics.rejects_by_kind);
  check_bool "bad-token bucket present" true
    (List.mem_assoc "bad-token" m.F.Metrics.rejects_by_kind);
  check_bool "replay steps counted" true (m.F.Metrics.replay_steps > 0);
  check_bool "wall clock advanced" true (m.F.Metrics.wall_seconds >= 0.0);
  (* the JSON point is well-formed enough to contain every counter *)
  let json = F.Metrics.to_json m in
  check_bool "json has batch" true
    (String.length json > 0 && json.[0] = '{'
     && List.mem_assoc "oob-access" m.F.Metrics.rejects_by_kind)

let test_empty_and_tiny_batches () =
  let built = Lazy.force vuln_built in
  let plan = F.Plan.of_built built in
  let empty = F.Fleet.verify_batch ~domains:4 plan [] in
  check_int "empty batch" 0 (List.length empty.F.Fleet.verdicts);
  check_int "empty batch size" 0 empty.F.Fleet.metrics.F.Metrics.batch_size;
  (* a one-report batch must not spawn three idle domains *)
  let one = F.Fleet.verify_batch ~domains:4 plan (mixed_batch built 1) in
  check_int "single report verified" 1 (List.length one.F.Fleet.verdicts);
  check_int "capped at one domain" 1 one.F.Fleet.metrics.F.Metrics.domains;
  (match F.Fleet.verify_batch ~domains:0 plan [] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "domains=0 accepted")

(* the plan cache's counters, read through [Plan.cache_counters] *)
let cache_stats c =
  let k = F.Plan.cache_counters c in
  (k.F.Plan.cc_hits, k.F.Plan.cc_misses)
let cache_size c = (F.Plan.cache_counters c).F.Plan.cc_resident
let cache_audits c = (F.Plan.cache_counters c).F.Plan.cc_audits

let test_plan_cache () =
  let cache = F.Plan.cache ~capacity:2 () in
  let pump = Lazy.force vuln_built in
  let sensor = Apps.build Apps.fire_sensor in
  let p1 = F.Plan.find_or_build cache pump in
  let p2 = F.Plan.find_or_build cache pump in
  Alcotest.(check string) "same firmware, same plan" (F.Plan.fingerprint p1)
    (F.Plan.fingerprint p2);
  check_bool "hit recorded" true (fst (cache_stats cache) = 1);
  let p3 = F.Plan.find_or_build cache sensor in
  check_bool "different firmware, different fingerprint" true
    (F.Plan.fingerprint p1 <> F.Plan.fingerprint p3);
  check_int "two plans resident" 2 (cache_size cache);
  (* a distinct device key is a distinct cache entry (and evicts, cap 2) *)
  ignore (F.Plan.find_or_build cache ~key:"other-device-key" pump);
  check_int "capacity respected" 2 (cache_size cache);
  let hits, misses = cache_stats cache in
  check_int "hits" 1 hits;
  check_int "misses" 3 misses

let test_cache_audits_once () =
  (* with ~audit armed, each distinct fingerprint is audited exactly once:
     on its cache miss, never again on hits *)
  let module S = Dialed_staticcheck in
  let audit = S.Audit.default_config in
  let cache = F.Plan.cache () in
  let pump = Lazy.force vuln_built in
  let sensor = Apps.build Apps.fire_sensor in
  let p1 = F.Plan.find_or_build cache ~audit pump in
  (match F.Plan.audit_report p1 with
   | Some r -> check_bool "miss carries a clean audit" true (S.Report.ok r)
   | None -> Alcotest.fail "audited plan carries no report");
  ignore (F.Plan.find_or_build cache ~audit pump);
  ignore (F.Plan.find_or_build cache ~audit sensor);
  ignore (F.Plan.find_or_build cache ~audit sensor);
  ignore (F.Plan.find_or_build cache ~audit pump);
  check_int "two distinct binaries, two audits" 2 (cache_audits cache);
  let hits, misses = cache_stats cache in
  check_int "hits never re-audit" 3 hits;
  check_int "misses" 2 misses;
  (* a hit still hands back the plan with its report attached *)
  match F.Plan.audit_report (F.Plan.find_or_build cache ~audit pump) with
  | Some _ -> ()
  | None -> Alcotest.fail "cached plan lost its audit report"

let test_cached_plan_verifies () =
  (* a plan pulled from the cache must verify exactly like a fresh one *)
  let built = Lazy.force vuln_built in
  let cache = F.Plan.cache () in
  let batch = mixed_batch built 8 in
  let fresh = F.Fleet.verify_batch (F.Plan.of_built built) batch in
  let via_cache =
    F.Fleet.verify_batch (F.Plan.find_or_build cache built) batch
  in
  check_bool "same verdicts via cache" true
    (List.map (fun (v : F.Fleet.verdict) -> (v.F.Fleet.device_id, v.F.Fleet.accepted))
       fresh.F.Fleet.verdicts
     = List.map (fun (v : F.Fleet.verdict) -> (v.F.Fleet.device_id, v.F.Fleet.accepted))
         via_cache.F.Fleet.verdicts)

(* everything a verdict observable carries; equality over this list is
   the fleet engine's determinism contract *)
let verdict_key (v : F.Fleet.verdict) =
  (v.F.Fleet.device_id, v.F.Fleet.accepted, v.F.Fleet.findings,
   v.F.Fleet.replay_steps)

let verdict_keys (s : F.Fleet.summary) =
  List.map verdict_key s.F.Fleet.verdicts

let test_pool_reuse () =
  (* one long-lived pool across several batches: the pooled path (warm
     workers, reused scratch arenas) must match both the strictly serial
     path and a private per-call pool, verdict for verdict *)
  let built = Lazy.force vuln_built in
  let plan = F.Plan.of_built built in
  let pool = F.Pool.create ~domains:3 () in
  check_int "pool domains" 3 (F.Pool.domains pool);
  check_int "pool workers" 2 (F.Pool.workers pool);
  List.iter
    (fun n ->
       let batch = mixed_batch built n in
       let serial = F.Fleet.verify_batch ~domains:1 plan batch in
       let per_call = F.Fleet.verify_batch ~domains:3 plan batch in
       let pooled = F.Fleet.verify_batch ~pool plan batch in
       check_bool
         (Printf.sprintf "batch %d: serial = per-call pool" n) true
         (verdict_keys serial = verdict_keys per_call);
       check_bool (Printf.sprintf "batch %d: serial = pooled" n) true
         (verdict_keys serial = verdict_keys pooled))
    [ 12; 16; 8 ];
  F.Pool.shutdown pool;
  F.Pool.shutdown pool;                       (* shutdown is idempotent *)
  match F.Fleet.verify_batch ~pool plan (mixed_batch built 8) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "verify_batch on a shut-down pool accepted"

let test_per_call_pool_released () =
  (* without [?pool] each call runs on a private pool and joins its
     workers before returning: 80 calls spawn 160 worker domains in all,
     more than the runtime can hold live at once (128), so a call that
     left its workers parked would make a later spawn fail *)
  let built = Lazy.force vuln_built in
  let plan = F.Plan.of_built built in
  let batch = mixed_batch built 4 in
  let serial = verdict_keys (F.Fleet.verify_batch ~domains:1 plan batch) in
  for i = 1 to 80 do
    let s = F.Fleet.verify_batch ~domains:3 plan batch in
    check_int (Printf.sprintf "call %d ran 3-way" i) 3
      s.F.Fleet.metrics.F.Metrics.domains;
    check_bool (Printf.sprintf "call %d = serial" i) true
      (verdict_keys s = serial)
  done

let test_pool_across_plans () =
  (* the same pool (hence the same per-domain scratch arenas) serves two
     different firmwares back to back: each arena must rebind cleanly,
     with no state leaking from the previous plan's replays *)
  let pump = Lazy.force vuln_built in
  let sensor_run = Apps.run Apps.fire_sensor in
  let sensor = sensor_run.Apps.built in
  let sensor_report =
    A.Device.attest sensor_run.Apps.device ~challenge:"pool-rebind"
  in
  let pump_plan = F.Plan.of_built pump in
  let sensor_plan = F.Plan.of_built sensor in
  let sensor_batch =
    List.init 6 (fun i -> (Printf.sprintf "sensor-%d" i, sensor_report))
  in
  let pump_batch = mixed_batch pump 8 in
  let pool = F.Pool.create ~domains:2 () in
  let fresh_pump = F.Fleet.verify_batch ~domains:1 pump_plan pump_batch in
  let fresh_sensor =
    F.Fleet.verify_batch ~domains:1 sensor_plan sensor_batch
  in
  (* interleave the two firmwares on one pool, twice each *)
  List.iter
    (fun () ->
       let p = F.Fleet.verify_batch ~pool pump_plan pump_batch in
       let s = F.Fleet.verify_batch ~pool sensor_plan sensor_batch in
       check_bool "pump verdicts survive rebinding" true
         (verdict_keys fresh_pump = verdict_keys p);
       check_bool "sensor verdicts survive rebinding" true
         (verdict_keys fresh_sensor = verdict_keys s);
       check_bool "sensor batch all accepted" true
         (List.for_all (fun (v : F.Fleet.verdict) -> v.F.Fleet.accepted)
            s.F.Fleet.verdicts))
    [ (); () ];
  F.Pool.shutdown pool

let test_stream_matches_batch () =
  let built = Lazy.force vuln_built in
  let plan = F.Plan.of_built built in
  let batch = mixed_batch built 20 in
  let batch_sum = F.Fleet.verify_batch ~domains:1 plan batch in
  let through st =
    List.iter (fun (id, r) -> F.Fleet.stream_submit st id r) batch;
    F.Fleet.stream_close st
  in
  (* inline path: a 1-domain stream has no workers, replays run in
     stream_submit itself *)
  let inline = through (F.Fleet.stream ~domains:1 plan) in
  check_bool "stream (inline) = batch" true
    (verdict_keys batch_sum = verdict_keys inline);
  (* pooled path, with a window small enough to exercise backpressure *)
  let pool = F.Pool.create ~domains:3 () in
  let streamed = through (F.Fleet.stream ~pool ~window:4 plan) in
  check_bool "stream (pooled, window 4) = batch" true
    (verdict_keys batch_sum = verdict_keys streamed);
  check_int "stream batch size" 20
    streamed.F.Fleet.metrics.F.Metrics.batch_size;
  F.Pool.shutdown pool;
  (* poll semantics: verdicts come back in submission order; close
     returns only the verdicts never polled, and metrics over all *)
  let st = F.Fleet.stream ~domains:1 plan in
  let first8 = List.filteri (fun i _ -> i < 8) batch in
  List.iter (fun (id, r) -> F.Fleet.stream_submit st id r) first8;
  check_int "nothing left in flight (inline stream)" 0
    (F.Fleet.stream_pending st);
  let polled = F.Fleet.stream_poll st in
  check_bool "poll returns the in-order prefix" true
    (List.map (fun (v : F.Fleet.verdict) -> v.F.Fleet.device_id) polled
     = List.map fst first8);
  check_int "poll drains" 0 (List.length (F.Fleet.stream_poll st));
  List.iter (fun (id, r) -> F.Fleet.stream_submit st id r)
    (List.filteri (fun i _ -> i >= 8) batch);
  let final = F.Fleet.stream_close st in
  check_bool "close returns the unpolled suffix" true
    (verdict_keys batch_sum = List.map verdict_key polled @ verdict_keys final);
  check_bool "close metrics cover polled + unpolled" true
    ({ batch_sum.F.Fleet.metrics with F.Metrics.wall_seconds = 0.0 }
     = { final.F.Fleet.metrics with F.Metrics.wall_seconds = 0.0 });
  match F.Fleet.stream_submit st "late" (snd (List.hd batch)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit on a closed stream accepted"

(* A pool that refuses a job (it was shut down) must leave the stream
   as it was: the refused report is not in flight, so close returns. *)
let test_stream_refused_submit () =
  let built = Lazy.force vuln_built in
  let plan = F.Plan.of_built built in
  let id, report = List.hd (mixed_batch built 1) in
  let pool = F.Pool.create ~domains:2 () in
  F.Pool.shutdown pool;
  let st = F.Fleet.stream ~pool plan in
  (match F.Fleet.stream_submit st id report with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "submit to a shut-down pool accepted");
  check_int "refused submit leaves nothing in flight" 0
    (F.Fleet.stream_pending st);
  (match F.Fleet.stream_try_submit st id report with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "try_submit to a shut-down pool accepted");
  check_int "refused try_submit leaves nothing in flight" 0
    (F.Fleet.stream_pending st);
  let final = F.Fleet.stream_close st in
  check_int "nothing counted" 0 final.F.Fleet.metrics.F.Metrics.batch_size;
  check_int "no verdicts" 0 (List.length final.F.Fleet.verdicts)

(* The gateway's submission call. On a 2-domain pool whose one worker
   is held by a blocking job, a window-1 stream fills on demand: a full
   window refuses without blocking and without counting, and a landed
   verdict reopens it. *)
let test_stream_try_submit () =
  let built = Lazy.force vuln_built in
  let plan = F.Plan.of_built built in
  let batch = mixed_batch built 3 in
  let serial = verdict_keys (F.Fleet.verify_batch ~domains:1 plan batch) in
  let take n = List.filteri (fun i _ -> i < n) in
  let wait_until what cond =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    if not (cond ()) then Alcotest.failf "%s within 5 s" what
  in
  let pool = F.Pool.create ~domains:2 () in
  let started = Atomic.make false and release = Atomic.make false in
  F.Pool.submit pool (fun () ->
      Atomic.set started true;
      while not (Atomic.get release) do Unix.sleepf 0.001 done);
  Fun.protect
    ~finally:(fun () -> Atomic.set release true; F.Pool.shutdown pool)
    (fun () ->
       wait_until "worker took the blocking job" (fun () -> Atomic.get started);
       let st = F.Fleet.stream ~pool ~window:1 plan in
       let id0, r0 = List.nth batch 0 and id1, r1 = List.nth batch 1 in
       check_bool "empty window takes the report" true
         (F.Fleet.stream_try_submit st id0 r0);
       let submitted () =
         (F.Fleet.stream_snapshot st).F.Metrics.batch_size
       in
       check_int "one in flight" 1 (F.Fleet.stream_pending st);
       check_bool "full window refuses" false
         (F.Fleet.stream_try_submit st id1 r1);
       check_int "refusal changes no pending count" 1
         (F.Fleet.stream_pending st);
       check_int "refusal changes no batch size" 1 (submitted ());
       Atomic.set release true;
       let polled = ref [] in
       wait_until "verdict landed" (fun () ->
           polled := !polled @ F.Fleet.stream_poll st;
           !polled <> []);
       check_bool "window reopens after progress" true
         (F.Fleet.stream_try_submit st id1 r1);
       let final = F.Fleet.stream_close st in
       check_int "two reports counted" 2
         final.F.Fleet.metrics.F.Metrics.batch_size;
       check_bool "verdicts = serial" true
         (List.map verdict_key !polled @ verdict_keys final = take 2 serial);
       match F.Fleet.stream_try_submit st id0 r0 with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.fail "try_submit on a closed stream accepted");
  (* a 0-worker pool replays inline, so even a window of 1 never fills *)
  let st = F.Fleet.stream ~domains:1 ~window:1 plan in
  List.iter
    (fun (id, r) ->
       check_bool "inline stream always takes the report" true
         (F.Fleet.stream_try_submit st id r))
    batch;
  check_int "inline: nothing in flight" 0 (F.Fleet.stream_pending st);
  let final = F.Fleet.stream_close st in
  check_bool "inline verdicts = serial" true (verdict_keys final = serial);
  match F.Fleet.stream_try_submit st "late" (snd (List.hd batch)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "try_submit on a closed inline stream accepted"

(* A long-lived stream whose verdicts are polled as they land (the
   gateway's pattern) must not keep them: its reachable heap after 10k
   submit+poll rounds is what it was after the first hundred. *)
let test_stream_retention_bounded () =
  let built = Lazy.force vuln_built in
  let plan = F.Plan.of_built built in
  let batch = Array.of_list (mixed_batch built 4) in
  let st = F.Fleet.stream ~domains:1 plan in
  let rounds n =
    for i = 1 to n do
      let id, r = batch.(i mod Array.length batch) in
      F.Fleet.stream_submit st id r;
      check_int "one verdict per poll" 1 (List.length (F.Fleet.stream_poll st))
    done
  in
  rounds 100;
  let words_before = Obj.reachable_words (Obj.repr st) in
  rounds 10_000;
  let words_after = Obj.reachable_words (Obj.repr st) in
  check_bool
    (Printf.sprintf "reachable words bounded (%d -> %d)" words_before
       words_after)
    true
    (words_after - words_before < 1_000);
  let final = F.Fleet.stream_close st in
  check_int "all rounds counted" 10_100
    final.F.Fleet.metrics.F.Metrics.batch_size

let test_rejects_by_kind_no_finding () =
  (* regression: a rejected verdict with an empty findings list used to
     vanish from the histogram, so the buckets no longer summed to the
     rejected count *)
  let v id accepted findings =
    { F.Fleet.device_id = id; accepted; findings; replay_steps = 0 }
  in
  let verdicts =
    [ v "ok" true [];
      v "bare" false [];
      v "tok" false [ C.Verifier.Bad_token "forged" ];
      v "tok2" false [ C.Verifier.Bad_token "forged"; C.Verifier.Replay_failed "x" ];
      v "bare2" false [] ]
  in
  let hist = F.Fleet.rejects_by_kind verdicts in
  check_int "buckets sum to rejected count" 4
    (List.fold_left (fun acc (_, n) -> acc + n) 0 hist);
  check_int "findingless rejections bucketed" 2
    (Option.value ~default:0 (List.assoc_opt "no-finding" hist));
  check_int "first finding is the decisive one" 2
    (Option.value ~default:0 (List.assoc_opt "bad-token" hist))

let test_lru_protects_hot_entry () =
  (* FIFO would evict the oldest insertion (the pump) even though it is
     the hot entry; LRU must evict the sensor instead *)
  let cache = F.Plan.cache ~capacity:2 () in
  let pump = Lazy.force vuln_built in
  let sensor = Apps.build Apps.fire_sensor in
  ignore (F.Plan.find_or_build cache pump);      (* miss: insert pump *)
  ignore (F.Plan.find_or_build cache sensor);    (* miss: insert sensor *)
  ignore (F.Plan.find_or_build cache pump);      (* hit: pump is now hot *)
  (* third key forces an eviction; the cold sensor must be the victim *)
  ignore (F.Plan.find_or_build cache ~key:"other-device-key" pump);
  check_int "capacity respected" 2 (cache_size cache);
  ignore (F.Plan.find_or_build cache pump);      (* still resident: hit *)
  let hits, misses = cache_stats cache in
  check_int "hot entry survived eviction" 2 hits;
  check_int "misses so far" 3 misses;
  ignore (F.Plan.find_or_build cache sensor);    (* evicted: a miss again *)
  let hits', misses' = cache_stats cache in
  check_int "cold entry was the victim" 4 misses';
  check_int "no phantom hit" 2 hits'

let test_cache_build_dedup () =
  (* two domains race find_or_build on the same missing key with the
     audit armed: exactly one build (and one audit) must run; the loser
     waits and counts as a hit *)
  let module S = Dialed_staticcheck in
  let audit = S.Audit.default_config in
  let cache = F.Plan.cache () in
  let pump = Lazy.force vuln_built in
  let racer () = F.Plan.find_or_build cache ~audit pump in
  let other = Domain.spawn racer in
  let here = racer () in
  let there = Domain.join other in
  Alcotest.(check string) "both racers got the same plan"
    (F.Plan.fingerprint here) (F.Plan.fingerprint there);
  let hits, misses = cache_stats cache in
  check_int "single build" 1 misses;
  check_int "loser counted as hit" 1 hits;
  check_int "single audit" 1 (cache_audits cache);
  check_int "single resident plan" 1 (cache_size cache)

let test_failed_build_counts_nothing () =
  (* Verifier.plan rejects non-DIALED variants; a build that raises must
     leave the cache empty, count no audit, and not wedge the in-flight
     marker (a retry must attempt a fresh build, not deadlock) *)
  let module S = Dialed_staticcheck in
  let audit = S.Audit.default_config in
  let cache = F.Plan.cache () in
  let cfa_only = Apps.build ~variant:C.Pipeline.Cfa_only Apps.fire_sensor in
  let attempt () =
    match F.Plan.find_or_build cache ~audit cfa_only with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "non-DIALED variant produced a plan"
  in
  attempt ();
  attempt ();                                  (* the key is not wedged *)
  check_int "no audits for failed builds" 0 (cache_audits cache);
  check_int "nothing resident" 0 (cache_size cache);
  let _, misses = cache_stats cache in
  check_int "each attempt was a fresh miss" 2 misses

let test_routed_report_own_plan () =
  (* a routed report is judged by the plan it was submitted with, its
     key and policies included, never by another plan that shares its
     firmware fingerprint *)
  let app = Apps.fire_sensor in
  let built = Apps.build app in
  let attest ?key challenge =
    let d = C.Pipeline.device ?key built in
    app.Apps.setup d;
    ignore (A.Device.run_operation ~args:app.Apps.benign_args d);
    A.Device.attest d ~challenge
  in
  let k2 = "second-device-key" in
  let deny_all =
    { C.Verifier.policy_name = "deny-all";
      check = (fun _ -> Error "every run denied") }
  in
  let plain = F.Plan.of_built built in
  let keyed = F.Plan.of_built ~key:k2 built in
  let denying = F.Plan.of_built ~policies:[ deny_all ] built in
  let benign = attest "routed-benign" in
  let benign_k2 = attest ~key:k2 "routed-k2" in
  let verdicts ?memo opened routed =
    let st = F.Fleet.stream ~domains:1 ?memo opened in
    List.iter (fun (plan, id, r) -> F.Fleet.stream_submit ~plan st id r) routed;
    (F.Fleet.stream_close st).F.Fleet.verdicts
  in
  let first_kind (v : F.Fleet.verdict) =
    match v.F.Fleet.findings with
    | f :: _ -> C.Verifier.finding_kind f
    | [] -> "none"
  in
  List.iter
    (fun (label, memo) ->
       let check what expected_kind (v : F.Fleet.verdict) =
         Alcotest.(check string) (label ^ ": " ^ what) expected_kind
           (if v.F.Fleet.accepted then "accepted" else first_kind v)
       in
       (match
          verdicts ?memo plain
            [ (keyed, "k2", benign_k2); (denying, "deny", benign) ]
        with
        | [ k2_v; deny_v ] ->
          check "key-K2 report on the K2 plan" "accepted" k2_v;
          check "benign report on the deny-all plan" "policy" deny_v
        | _ -> Alcotest.fail "two verdicts expected");
       match verdicts ?memo denying [ (plain, "plain", benign) ] with
       | [ v ] -> check "benign report routed off the deny-all stream"
                    "accepted" v
       | _ -> Alcotest.fail "one verdict expected")
    [ ("memo off", None); ("memo on", Some (F.Memo.create ())) ]

let suites =
  [ ("fleet",
     [ Alcotest.test_case "determinism across domains" `Quick
         test_determinism_across_domains;
       Alcotest.test_case "mixed batch verdicts" `Quick
         test_mixed_batch_verdicts;
       Alcotest.test_case "metrics aggregation" `Quick
         test_metrics_aggregation;
       Alcotest.test_case "empty and tiny batches" `Quick
         test_empty_and_tiny_batches;
       Alcotest.test_case "plan cache" `Quick test_plan_cache;
       Alcotest.test_case "cache audits once" `Quick test_cache_audits_once;
       Alcotest.test_case "cached plan verifies" `Quick
         test_cached_plan_verifies;
       Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
       Alcotest.test_case "per-call pool released" `Quick
         test_per_call_pool_released;
       Alcotest.test_case "pool rebinds scratch across plans" `Quick
         test_pool_across_plans;
       Alcotest.test_case "stream matches batch" `Quick
         test_stream_matches_batch;
       Alcotest.test_case "stream refuses a shut-down pool" `Quick
         test_stream_refused_submit;
       Alcotest.test_case "stream_try_submit window" `Quick
         test_stream_try_submit;
       Alcotest.test_case "stream retention bounded" `Quick
         test_stream_retention_bounded;
       Alcotest.test_case "rejects_by_kind keeps findingless rejects" `Quick
         test_rejects_by_kind_no_finding;
       Alcotest.test_case "LRU protects hot plan" `Quick
         test_lru_protects_hot_entry;
       Alcotest.test_case "concurrent builds dedup" `Quick
         test_cache_build_dedup;
       Alcotest.test_case "failed build counts nothing" `Quick
         test_failed_build_counts_nothing;
       Alcotest.test_case "routed report verifies on its own plan" `Quick
         test_routed_report_own_plan ]) ]
