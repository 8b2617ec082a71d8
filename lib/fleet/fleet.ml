module C = Dialed_core
module A = Dialed_apex

type verdict = {
  device_id : string;
  accepted : bool;
  findings : C.Verifier.finding list;
  replay_steps : int;
}

type summary = {
  verdicts : verdict list;
  metrics : Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Per-domain scratch arenas: every domain that replays reports — pool
   workers and the submitting domain itself — reuses replay sandboxes
   fetched through domain-local storage. Pool workers keep theirs warm
   across batches; that, not the queue, is where the per-report
   Memory.create/image-load cost goes.

   The arenas are a checkout pool, not a single per-domain value: a
   multi-threaded submitter (several systhreads of one domain calling
   into the fleet) can have several replays in flight on one domain,
   since a thread can be preempted mid-replay. Each active replay checks
   out its own arena; the single-threaded steady state still reuses
   exactly one arena per domain. *)

let scratch_free = Domain.DLS.new_key (fun () -> ref [])
let scratch_lock = Mutex.create ()

let with_scratch f =
  let free = Domain.DLS.get scratch_free in
  Mutex.lock scratch_lock;
  let checked_out =
    match !free with
    | [] -> None
    | s :: rest -> free := rest; Some s
  in
  Mutex.unlock scratch_lock;
  let s =
    match checked_out with Some s -> s | None -> C.Verifier.scratch ()
  in
  Fun.protect
    ~finally:(fun () ->
        Mutex.lock scratch_lock;
        free := s :: !free;
        Mutex.unlock scratch_lock)
    (fun () -> f s)

(* ------------------------------------------------------------------ *)

let verdict_of_outcome device_id (outcome : C.Verifier.outcome) =
  let replay_steps =
    match outcome.C.Verifier.trace with
    | Some t -> t.C.Verifier.step_count
    | None -> 0
  in
  { device_id; accepted = outcome.C.Verifier.accepted;
    findings = outcome.C.Verifier.findings; replay_steps }

(* Bucket a rejected verdict by the kind of its first (decisive)
   finding. A rejection always names one; a rejected verdict with an
   empty findings list (nothing downstream should produce one, but
   synthetic or future verdicts might) still counts, under its own
   bucket. *)
let count_reject kinds v =
  let kind =
    match v.findings with
    | f :: _ -> C.Verifier.finding_kind f
    | [] -> "no-finding"
  in
  Hashtbl.replace kinds kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt kinds kind))

let sorted_kinds kinds =
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds [])

let rejects_by_kind verdicts =
  let kinds = Hashtbl.create 8 in
  List.iter (fun v -> if not v.accepted then count_reject kinds v) verdicts;
  sorted_kinds kinds

(* ------------------------------------------------------------------ *)
(* Streaming verification: reports arrive one at a time, verdicts are
   collected as replays complete, and a bounded in-flight window applies
   backpressure to the submitter. The submitter helps drain the pool
   whenever it would otherwise block, so a window-full stream on a
   1-worker (or busy) pool still makes progress.                        *)

type stream = {
  st_vplan : C.Verifier.plan;        (* the plan the stream was opened on *)
  st_memo : Memo.t option;
  (* this stream's memo hit/miss counts (Atomic: workers on several
     domains bump them); the memo itself is shared and outlives it *)
  st_memo_hits : int Atomic.t;
  st_memo_misses : int Atomic.t;
  st_pool : Pool.t;
  st_owned : bool;                   (* shut the pool down on close *)
  st_window : int;
  st_mutex : Mutex.t;
  st_progress : Condition.t;         (* a verdict landed *)
  (* ring of the unpolled verdicts: seq [st_polled <= seq < st_submitted]
     lives at [seq land (length - 1)]; the length is a power of two that
     grows with the unpolled count, and a slot is cleared once polled *)
  mutable st_results : verdict option array;
  mutable st_submitted : int;
  mutable st_inflight : int;
  mutable st_polled : int;           (* next seq stream_poll hands out *)
  mutable st_exn : exn option;
  mutable st_closed : bool;
  mutable st_on_progress : (unit -> unit) option;
  st_t0 : float;
  (* running aggregates over every verdict that landed: the snapshot and
     the close summary are built from these, not from the verdicts *)
  mutable st_accepted : int;
  mutable st_rejected : int;
  mutable st_steps : int;
  st_kinds : (string, int) Hashtbl.t;
}

let stream ?domains ?pool ?window ?memo plan =
  let p, owned =
    match pool with
    | Some p -> (p, false)
    | None -> (Pool.create ?domains (), true)
  in
  let window =
    match window with
    | Some w -> if w < 1 then invalid_arg "Fleet.stream: window must be >= 1" else w
    | None -> max 16 (4 * Pool.domains p)
  in
  { st_vplan = Plan.vplan plan; st_memo = memo;
    st_memo_hits = Atomic.make 0; st_memo_misses = Atomic.make 0;
    st_pool = p; st_owned = owned;
    st_window = window; st_mutex = Mutex.create ();
    st_progress = Condition.create (); st_results = Array.make 64 None;
    st_submitted = 0; st_inflight = 0; st_polled = 0; st_exn = None;
    st_closed = false; st_on_progress = None;
    st_t0 = Unix.gettimeofday (); st_accepted = 0;
    st_rejected = 0; st_steps = 0; st_kinds = Hashtbl.create 8 }

(* Judge one report on [vplan], the plan it was submitted with. *)
let verify_one st ?digest vplan scratch device_id report =
  (* fleet verdicts never inspect individual steps, so skip trace
     retention — the replay still runs every detector *)
  match st.st_memo with
  | None ->
    verdict_of_outcome device_id
      (C.Verifier.verify_plan ~keep_trace:false ~scratch vplan report)
  | Some memo ->
    (* the per-session half (audit gate, layout, HMAC token) runs on
       every report, hit or miss — authenticity is never cached, and a
       precheck rejection never enters the memo (it depends on
       challenge/nonce material, not the log) *)
    (match C.Verifier.precheck vplan report with
     | Error f ->
       { device_id; accepted = false; findings = [ f ]; replay_steps = 0 }
     | Ok () ->
       let digest =
         match digest with
         | Some d -> d
         | None -> C.Verifier.log_digest report
       in
       (* the plan's namespace covers its fingerprint, key, step budget
          and policies, so a report is memoized with its own plan's
          verdicts only *)
       let handle = Memo.handle memo ~ns:(C.Verifier.plan_memo_ns vplan) in
       let entry, outcome =
         Memo.find_or_replay handle ~digest (fun () ->
             let o =
               C.Verifier.replay_outcome ~keep_trace:false ~scratch vplan
                 report
             in
             let v = verdict_of_outcome device_id o in
             { Memo.e_accepted = v.accepted; e_findings = v.findings;
               e_steps = v.replay_steps })
       in
       (match outcome with
        | `Hit -> Atomic.incr st.st_memo_hits
        | `Miss -> Atomic.incr st.st_memo_misses);
       (* e_steps is what the original fresh replay executed, so memo-on
          and memo-off verdicts are bit-identical *)
       { device_id; accepted = entry.Memo.e_accepted;
         findings = entry.Memo.e_findings; replay_steps = entry.Memo.e_steps })

(* Wait (helping the pool) until [cond ()] turns false; call with
   [st_mutex] held, returns with it held. *)
let help_while st cond =
  while cond () do
    Mutex.unlock st.st_mutex;
    let ran = Pool.try_run_one st.st_pool in
    Mutex.lock st.st_mutex;
    if (not ran) && cond () then Condition.wait st.st_progress st.st_mutex
  done

(* Register the next submission and start its replay: on the pool, or
   inline on the calling thread when the pool has no workers. Call with
   [st_mutex] held and [st_closed] already checked; returns with the
   lock released. The job reaches the pool before the submission is
   counted, so a pool that refuses it (shut down) raises here and
   leaves nothing in flight for [stream_close] to wait on. *)
let dispatch_locked ?digest ?plan st device_id report =
  let vplan = match plan with Some p -> Plan.vplan p | None -> st.st_vplan in
  let seq = st.st_submitted in
  let len = Array.length st.st_results in
  if seq - st.st_polled = len then begin
    let bigger = Array.make (2 * len) None in
    for q = st.st_polled to seq - 1 do
      bigger.(q land ((2 * len) - 1)) <- st.st_results.(q land (len - 1))
    done;
    st.st_results <- bigger
  end;
  let job () =
    let result =
      try
        Ok (with_scratch (fun scratch ->
            verify_one st ?digest vplan scratch device_id report))
      with e -> Error e
    in
    Mutex.lock st.st_mutex;
    (match result with
     | Ok v ->
       st.st_results.(seq land (Array.length st.st_results - 1)) <- Some v;
       st.st_steps <- st.st_steps + v.replay_steps;
       if v.accepted then st.st_accepted <- st.st_accepted + 1
       else begin
         st.st_rejected <- st.st_rejected + 1;
         count_reject st.st_kinds v
       end
     | Error e -> if st.st_exn = None then st.st_exn <- Some e);
    st.st_inflight <- st.st_inflight - 1;
    Condition.broadcast st.st_progress;
    (* notify outside the lock so the callback may call back into the
       stream (the event loop's wakeup thunk does) without deadlock *)
    let cb = st.st_on_progress in
    Mutex.unlock st.st_mutex;
    match cb with Some f -> f () | None -> ()
  in
  let inline = Pool.workers st.st_pool = 0 in
  (* a worker that picks the job up at once blocks on [st_mutex] until
     the counts below are in place *)
  if not inline then begin
    try Pool.submit st.st_pool job
    with e -> Mutex.unlock st.st_mutex; raise e
  end;
  st.st_submitted <- seq + 1;
  st.st_inflight <- st.st_inflight + 1;
  Mutex.unlock st.st_mutex;
  if inline then job ()

let stream_submit ?digest ?plan st device_id report =
  Mutex.lock st.st_mutex;
  if st.st_closed then begin
    Mutex.unlock st.st_mutex;
    invalid_arg "Fleet.stream_submit: stream is closed"
  end;
  dispatch_locked ?digest ?plan st device_id report;
  if Pool.workers st.st_pool > 0 then begin
    (* bounded window: block (helping) until in-flight drops below it *)
    Mutex.lock st.st_mutex;
    help_while st (fun () -> st.st_inflight >= st.st_window);
    Mutex.unlock st.st_mutex
  end

let stream_try_submit ?digest ?plan st device_id report =
  Mutex.lock st.st_mutex;
  if st.st_closed then begin
    Mutex.unlock st.st_mutex;
    invalid_arg "Fleet.stream_try_submit: stream is closed"
  end;
  (* a 0-worker pool runs the job inline (like stream_submit), so the
     window can never be full there *)
  if Pool.workers st.st_pool > 0 && st.st_inflight >= st.st_window then begin
    Mutex.unlock st.st_mutex;
    false
  end
  else begin
    dispatch_locked ?digest ?plan st device_id report;
    true
  end

let stream_on_progress st cb =
  Mutex.lock st.st_mutex;
  st.st_on_progress <- cb;
  Mutex.unlock st.st_mutex

(* The running aggregates as metrics, memo counters still zero. Call with
   [st_mutex] held. *)
let metrics_locked st =
  { Metrics.domains = Pool.domains st.st_pool;
    batch_size = st.st_submitted;
    accepted = st.st_accepted;
    rejected = st.st_rejected;
    replay_steps = st.st_steps;
    wall_seconds = Unix.gettimeofday () -. st.st_t0;
    rejects_by_kind = sorted_kinds st.st_kinds;
    memo_hits = 0; memo_misses = 0; memo_evictions = 0 }

(* memo counters live outside st_mutex (Atomics + the memo's own locks);
   read them after releasing it to keep lock order flat. Evictions are
   the shared memo's cumulative count. *)
let with_memo_counts st m =
  match st.st_memo with
  | None -> m
  | Some memo ->
    { m with
      Metrics.memo_hits = Atomic.get st.st_memo_hits;
      memo_misses = Atomic.get st.st_memo_misses;
      memo_evictions = (Memo.stats memo).Memo.evictions }

let stream_snapshot st =
  Mutex.lock st.st_mutex;
  let m = metrics_locked st in
  Mutex.unlock st.st_mutex;
  with_memo_counts st m

let stream_pending st =
  Mutex.lock st.st_mutex;
  let n = st.st_inflight in
  Mutex.unlock st.st_mutex;
  n

(* Collect the in-order prefix of completed, not-yet-polled verdicts,
   clearing their slots. Call with [st_mutex] held. *)
let take_ready st =
  let out = ref [] in
  let continue = ref true in
  while !continue && st.st_polled < st.st_submitted do
    let i = st.st_polled land (Array.length st.st_results - 1) in
    match st.st_results.(i) with
    | Some v ->
      out := v :: !out;
      st.st_results.(i) <- None;
      st.st_polled <- st.st_polled + 1
    | None -> continue := false
  done;
  List.rev !out

let stream_poll st =
  Mutex.lock st.st_mutex;
  let ready = take_ready st in
  Mutex.unlock st.st_mutex;
  ready

let stream_close st =
  Mutex.lock st.st_mutex;
  if st.st_closed then begin
    Mutex.unlock st.st_mutex;
    invalid_arg "Fleet.stream_close: already closed"
  end;
  st.st_closed <- true;
  help_while st (fun () -> st.st_inflight > 0);
  let failure = st.st_exn in
  let metrics = metrics_locked st in
  (* inflight drained: unless a replay raised, the whole unpolled suffix
     has landed and [take_ready] hands it all out *)
  let verdicts = match failure with None -> take_ready st | Some _ -> [] in
  Mutex.unlock st.st_mutex;
  if st.st_owned then Pool.shutdown st.st_pool;
  (match failure with Some e -> raise e | None -> ());
  { verdicts; metrics = with_memo_counts st metrics }

let verify_batch ?pool ?(domains = 1) ?memo plan batch =
  if domains < 1 then invalid_arg "Fleet.verify_batch: domains must be >= 1";
  (* a private pool is never wider than the batch, so a one-report call
     spawns nothing *)
  let domains = max 1 (min domains (List.length batch)) in
  let st = stream ?pool ~domains ?memo plan in
  List.iter (fun (device_id, report) -> stream_submit st device_id report)
    batch;
  stream_close st

(* ------------------------------------------------------------------ *)

let rejected s = List.filter (fun v -> not v.accepted) s.verdicts

let pp_verdict ppf v =
  if v.accepted then
    Format.fprintf ppf "%-12s trusted (%d replay steps)" v.device_id
      v.replay_steps
  else
    Format.fprintf ppf "%-12s REJECTED: %a" v.device_id
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         C.Verifier.pp_finding)
      v.findings

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>%a@]" Metrics.pp s.metrics;
  match rejected s with
  | [] -> ()
  | rej ->
    Format.fprintf ppf "@,@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_verdict) rej
