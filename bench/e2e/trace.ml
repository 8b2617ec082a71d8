(* The traced replay. Rounds captured from the live run are pushed, on
   this one thread, through the same public calls the gateway makes for
   them and in the same order, with one span per call:

     Frame.feed+Codec.decode (Ready) -> Lifecycle.recheck
       -> Protocol.gate_issue -> Codec.encode+Frame.encode (Request_seq)
     [prover: Device.attest, Wire.encode]
     Frame.feed+Codec.decode (Report_seq) -> Lifecycle.recheck
       -> Wire.decode[_digested] -> Protocol.gate_redeem
       -> Verifier.precheck -> Memo.find_or_replay | Verifier.replay_outcome
       -> Fleet.stream_try_submit+stream_poll -> Lifecycle.recheck
       -> Codec.encode+Frame.encode (Verdict_seq) [-> Lifecycle.note_attested]

   plus the handshake calls once per session. The gateway's challenge
   gate is private to it, so each round is re-attested under the
   challenge the trace's own gate issues: the report differs from the
   captured one only in challenge and token, which the replay checks
   (same length, same log digest). Its verdict must equal the live one.

   A layer the gateway does not run on a workload (the memo with memo
   off, the registry without one, replay on a memo hit) is still timed
   on the same report, as a probe: reported, but kept out of the sum of
   layer time that the gateway's CPU per round is split against. *)

module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module N = Dialed_net
module L = Dialed_lifecycle.Lifecycle
module W = Workload
module D = Driver

type name =
  | Hello_in | Admit | Make_gate | Welcome_out | Bye_in
  | Ready_in | Recheck | Gate_issue | Request_out
  | Attest
  | Report_in | Wire_decode | Gate_redeem | Precheck | Memo_lookup | Replay
  | Stream | Verdict_out | Note_attested

let name_to_string = function
  | Hello_in -> "codec.hello_in" | Admit -> "lifecycle.admit"
  | Make_gate -> "protocol.make_gate" | Welcome_out -> "codec.welcome_out"
  | Bye_in -> "codec.bye_in" | Ready_in -> "codec.ready_in"
  | Recheck -> "lifecycle.recheck" | Gate_issue -> "protocol.gate_issue"
  | Request_out -> "codec.request_out" | Attest -> "driver.attest"
  | Report_in -> "codec.report_in" | Wire_decode -> "wire.decode"
  | Gate_redeem -> "protocol.gate_redeem" | Precheck -> "verifier.precheck"
  | Memo_lookup -> "memo.lookup" | Replay -> "verifier.replay"
  | Stream -> "fleet.stream" | Verdict_out -> "codec.verdict_out"
  | Note_attested -> "lifecycle.note_attested"

(* ---- span recorder: preallocated arrays, nothing per span but the
   closure ---- *)

type spans = {
  mutable on : bool;
  mutable n : int;
  mutable cur : int;            (* enclosing span, -1 at top level *)
  mutable unit_ : int;          (* round id, or -1 - session id *)
  mutable probe : bool;
  sp_name : name array;
  sp_t0 : int array;
  sp_t1 : int array;
  sp_parent : int array;
  sp_unit : int array;
  sp_probe : bool array;
  sp_steps : int array;         (* replay spans: instructions replayed *)
}

let spans cap =
  { on = false; n = 0; cur = -1; unit_ = 0; probe = false;
    sp_name = Array.make cap Attest; sp_t0 = Array.make cap 0;
    sp_t1 = Array.make cap 0; sp_parent = Array.make cap (-1);
    sp_unit = Array.make cap 0; sp_probe = Array.make cap false;
    sp_steps = Array.make cap 0 }

let now = Driver.now_ns

let span sp name f =
  if not sp.on then f ()
  else begin
    let i = sp.n in
    if i >= Array.length sp.sp_name then failwith "trace: span buffer full";
    sp.n <- i + 1;
    let parent = sp.cur in
    sp.cur <- i;
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    sp.cur <- parent;
    sp.sp_name.(i) <- name; sp.sp_t0.(i) <- t0; sp.sp_t1.(i) <- t1;
    sp.sp_parent.(i) <- parent; sp.sp_unit.(i) <- sp.unit_;
    sp.sp_probe.(i) <- sp.probe;
    v
  end

(* spans opened inside [f] are probes: timed, kept off the gateway's path *)
let as_probe sp f =
  sp.probe <- true;
  Fun.protect ~finally:(fun () -> sp.probe <- false) f

let probe sp name f = as_probe sp (fun () -> span sp name f)

(* ---- the replay ---- *)

type ctx = {
  w : W.t;
  vplan : C.Verifier.plan;
  args : int list;
  memo : F.Memo.handle option;     (* on the gateway's path *)
  probe_memo : F.Memo.handle;      (* memo-off workloads: probe only *)
  stream : F.Fleet.stream;
  scratch : C.Verifier.scratch;
  lc : L.t;                        (* on the path iff [w.registry] *)
  prover : W.prover;
  ready_frame : string;
  bye_frame : string;
  mutable mismatches : int;
}

let frame = Driver.frame

let decode_frame bytes =
  let d = N.Frame.decoder () in
  match N.Frame.feed d bytes with
  | Ok [ p ] ->
    (match N.Codec.decode p with
     | Ok m -> m
     | Error e -> failwith ("trace: " ^ N.Codec.error_to_string e))
  | _ -> failwith "trace: not one frame"

(* the gateway's verdict rendering (Server.verdict_msg) *)
let verdict_msg (v : F.Fleet.verdict) =
  ( v.F.Fleet.accepted,
    List.map
      (fun f ->
         (C.Verifier.finding_kind f, Format.asprintf "%a" C.Verifier.pp_finding f))
      v.F.Fleet.findings )

let mismatch ctx what =
  ctx.mismatches <- ctx.mismatches + 1;
  if ctx.mismatches <= 5 then Printf.eprintf "e2e: trace mismatch: %s\n%!" what

let recheck ctx sp device =
  let call () = ignore (L.recheck ctx.lc device : (unit, L.denial) result) in
  if ctx.w.W.registry then span sp Recheck call else probe sp Recheck call

let replay ctx sp report =
  let o =
    span sp Replay (fun () ->
        C.Verifier.replay_outcome ~keep_trace:false ~scratch:ctx.scratch
          ctx.vplan report)
  in
  if sp.on then
    sp.sp_steps.(sp.n - 1) <-
      (match o.C.Verifier.trace with Some t -> t.C.Verifier.step_count | None -> 0);
  o

let entry_of (o : C.Verifier.outcome) =
  { F.Memo.e_accepted = o.C.Verifier.accepted; e_findings = o.C.Verifier.findings;
    e_steps = 0 }

(* What Fleet.verify_one runs inside the stream, call by call. *)
let verify_direct ctx sp report digest =
  match span sp Precheck (fun () -> C.Verifier.precheck ctx.vplan report) with
  | Error f -> (false, [ f ])
  | Ok () ->
    (match ctx.memo, digest with
     | Some h, Some digest ->
       let e, _ =
         span sp Memo_lookup (fun () ->
             F.Memo.find_or_replay h ~digest (fun () ->
                 entry_of (replay ctx sp report)))
       in
       (* replay is elided on a hit: time it anyway, off the path *)
       ignore (as_probe sp (fun () -> replay ctx sp report) : C.Verifier.outcome);
       (e.F.Memo.e_accepted, e.F.Memo.e_findings)
     | _ ->
       let o = replay ctx sp report in
       let digest = C.Verifier.log_digest report in
       ignore
         (probe sp Memo_lookup (fun () ->
              F.Memo.find_or_replay ctx.probe_memo ~digest (fun () ->
                  entry_of
                    (C.Verifier.replay_outcome ~keep_trace:false
                       ~scratch:ctx.scratch ctx.vplan report))));
       (o.C.Verifier.accepted, o.C.Verifier.findings))

let report_digest bytes =
  match decode_frame bytes with
  | N.Codec.Report_seq { wire; _ } ->
    (match A.Wire.decode_digested wire with
     | Ok (_, d) -> (String.length wire, d)
     | Error _ -> failwith "trace: captured report does not decode")
  | _ -> failwith "trace: captured frame is not a Report_seq"

(* One round; returns the gateway-side time outside prover work. *)
let round ctx sp ~gate ~seq (c : D.captured) =
  let device = c.D.c_device in
  let s1 = now () in
  (match span sp Ready_in (fun () -> decode_frame ctx.ready_frame) with
   | N.Codec.Ready -> ()
   | _ -> failwith "trace: Ready frame");
  recheck ctx sp device;
  let req = span sp Gate_issue (fun () -> C.Protocol.gate_issue gate ~args:ctx.args) in
  ignore
    (span sp Request_out (fun () ->
         frame
           (N.Codec.Request_seq
              { seq; challenge = req.C.Protocol.challenge; args = req.C.Protocol.args })));
  let e1 = now () in
  let report_frame =
    span sp Attest (fun () ->
        let r =
          W.respond ctx.prover ~kind:c.D.c_kind ~shape:c.D.c_shape
            ~challenge:req.C.Protocol.challenge
        in
        frame (N.Codec.Report_seq { seq; wire = A.Wire.encode r }))
  in
  if report_digest report_frame <> report_digest c.D.c_report then
    mismatch ctx "re-attested report differs from the captured one";
  let s2 = now () in
  let wire =
    match span sp Report_in (fun () -> decode_frame report_frame) with
    | N.Codec.Report_seq { wire; _ } -> wire
    | _ -> failwith "trace: Report_seq frame"
  in
  recheck ctx sp device;
  let report, digest =
    span sp Wire_decode (fun () ->
        if ctx.w.W.memo then
          match A.Wire.decode_digested wire with
          | Ok (r, d) -> (r, Some d)
          | Error _ -> failwith "trace: wire decode"
        else
          match A.Wire.decode wire with
          | Ok r -> (r, None)
          | Error _ -> failwith "trace: wire decode")
  in
  (match span sp Gate_redeem (fun () -> C.Protocol.gate_redeem gate req report) with
   | Ok () -> ()
   | Error e -> failwith ("trace: gate_redeem: " ^ e));
  let pause = now () in
  let direct = verify_direct ctx sp report digest in
  let verify_ns = now () - pause in
  let v =
    span sp Stream (fun () ->
        if not (F.Fleet.stream_try_submit ?digest ctx.stream device report) then
          failwith "trace: stream window full";
        match F.Fleet.stream_poll ctx.stream with
        | [ v ] -> v
        | _ -> failwith "trace: stream verdict")
  in
  recheck ctx sp device;
  ignore
    (span sp Verdict_out (fun () ->
         let accepted, findings = verdict_msg v in
         frame (N.Codec.Verdict_seq { seq; accepted; findings })));
  if v.F.Fleet.accepted && ctx.w.W.registry then
    span sp Note_attested (fun () ->
        if L.find ctx.lc device <> None then L.note_attested ctx.lc device);
  let e2 = now () in
  if direct <> (v.F.Fleet.accepted, v.F.Fleet.findings) then
    mismatch ctx "per-call verify differs from the stream's verdict";
  if verdict_msg v <> (c.D.c_accepted, c.D.c_findings) then
    mismatch ctx "traced verdict differs from the live one";
  (* the direct verify is the trace's own duplicate of the stream's:
     not gateway time *)
  e1 - s1 + (e2 - s2) - verify_ns

let session ctx sp (rounds : D.captured list) ~first_id ~sess_id =
  let c0 = List.hd rounds in
  sp.unit_ <- -1 - sess_id;
  let t0 = now () in
  let device_id, window =
    match span sp Hello_in (fun () -> decode_frame c0.D.c_hello) with
    | N.Codec.Hello_ex { device_id; window; _ } -> (device_id, window)
    | _ -> failwith "trace: Hello_ex frame"
  in
  let admit () =
    match L.admit ctx.lc ~device_id ~firmware:"" with
    | Ok () -> ignore (L.find ctx.lc device_id : L.device option)
    | Error d -> failwith ("trace: admit: " ^ L.denial_to_string d)
  in
  if ctx.w.W.registry then span sp Admit admit else probe sp Admit admit;
  let gate =
    span sp Make_gate (fun () ->
        C.Protocol.make_gate ~seed:(W.session_seed ^ "/" ^ device_id) ())
  in
  ignore (span sp Welcome_out (fun () ->
      frame (N.Codec.Welcome { window = min window 32 })));
  let hs = now () - t0 in
  let busy =
    List.fold_left
      (fun (acc, i) c ->
         sp.unit_ <- first_id + i;
         (acc + round ctx sp ~gate ~seq:i c, i + 1))
      (hs, 0) rounds
    |> fst
  in
  sp.unit_ <- -1 - sess_id;
  let t1 = now () in
  (match span sp Bye_in (fun () -> decode_frame ctx.bye_frame) with
   | N.Codec.Bye -> ()
   | _ -> failwith "trace: Bye frame");
  busy + (now () - t1)

(* Captured rounds grouped by live session, sessions in live order. *)
let by_session (captured : D.captured array) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun c ->
       let l = Option.value (Hashtbl.find_opt tbl c.D.c_session) ~default:[] in
       Hashtbl.replace tbl c.D.c_session (c :: l))
    captured;
  Hashtbl.fold (fun k l acc -> (k, List.rev l) :: acc) tbl []
  |> List.sort compare |> List.map snd

(* One pass over every captured session, with spans on for the sessions
   [traced] selects: gateway-side time with spans on, and with them
   off. *)
let pass ctx sp groups ~traced =
  let on = ref 0 and off = ref 0 and first_id = ref 0 in
  List.iteri
    (fun sess_id rounds ->
       sp.on <- traced sess_id;
       let busy = session ctx sp rounds ~first_id:!first_id ~sess_id in
       if sp.on then on := !on + busy else off := !off + busy;
       first_id := !first_id + List.length rounds)
    groups;
  sp.on <- false;
  (!on, !off)

(* ---- analysis ---- *)

type live = {
  gw_cpu_us_per_round : float;
  sessions_per_round : float;   (* live sessions over live rounds *)
  miss_share : float;           (* memo misses per round, live *)
}

type outcome = {
  metrics : (string * float * string) list;   (* name, value, unit *)
  layer_split : (string * float) list;        (* on-path us per round *)
  mismatches : int;
  rounds : int;
  events : string list;                       (* Chrome trace events *)
}

let analyse ctx sp ~live ~overhead_pct ~rounds ~pid =
  let n = sp.n in
  let dur i = float_of_int (sp.sp_t1.(i) - sp.sp_t0.(i)) /. 1e3 in
  let self = Array.init n dur in
  for i = 0 to n - 1 do
    let p = sp.sp_parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. dur i
  done;
  (* per unit and name: summed self time and call count *)
  let per : (int * name * bool, float * int) Hashtbl.t = Hashtbl.create 4096 in
  for i = 0 to n - 1 do
    let k = (sp.sp_unit.(i), sp.sp_name.(i), sp.sp_probe.(i)) in
    let s, c = Option.value (Hashtbl.find_opt per k) ~default:(0.0, 0) in
    Hashtbl.replace per k (s +. self.(i), c + 1)
  done;
  let units_of names ~per_call =
    let by_unit = Hashtbl.create 1024 in
    Hashtbl.iter
      (fun (u, nm, _) (s, c) ->
         if List.mem nm names then
           let v = if per_call then s /. float_of_int c else s in
           Hashtbl.replace by_unit u
             (v +. Option.value (Hashtbl.find_opt by_unit u) ~default:0.0))
      per;
    Array.of_seq (Hashtbl.to_seq_values by_unit)
  in
  let med names = Stat.percentile (units_of names ~per_call:false) 50.0 in
  let per_call nm = Stat.percentile (units_of [ nm ] ~per_call:true) 50.0 in
  let replays = List.filter (fun i -> sp.sp_name.(i) = Replay) (List.init n Fun.id) in
  let replay_us = Stat.percentile (Array.of_list (List.map dur replays)) 50.0 in
  let steps_per_s =
    Stat.percentile
      (Array.of_list
         (List.map (fun i -> float_of_int sp.sp_steps.(i) /. (dur i /. 1e6)) replays))
      50.0
  in
  (* the stream's own cost: its span minus the verify inside it, which
     the per-call spans of the same round measured *)
  let stream_overhead =
    let verify = Hashtbl.create 256 and stream = Hashtbl.create 256 in
    for i = 0 to n - 1 do
      let u = sp.sp_unit.(i) in
      let add tbl = Hashtbl.replace tbl u (dur i +. Option.value (Hashtbl.find_opt tbl u) ~default:0.0) in
      match sp.sp_name.(i) with
      | Stream -> add stream
      | (Precheck | Memo_lookup) when not sp.sp_probe.(i) -> add verify
      | Replay when not sp.sp_probe.(i) && sp.sp_parent.(i) < 0 -> add verify
      | _ -> ()
    done;
    Hashtbl.fold
      (fun u s acc -> (s -. Option.value (Hashtbl.find_opt verify u) ~default:0.0) :: acc)
      stream []
    |> Array.of_list
  in
  (* on-path layer time per round, by layer *)
  let on_path_total ~session =
    Hashtbl.fold
      (fun (u, nm, is_probe) (s, _) acc ->
         if is_probe || nm = Attest || nm = Stream || (u < 0) <> session then acc
         else
           let k = name_to_string nm in
           (k, s +. Option.value (List.assoc_opt k acc) ~default:0.0)
           :: List.remove_assoc k acc)
      per []
  in
  let sessions = Hashtbl.fold (fun (u, _, _) _ acc -> if u < 0 then u :: acc else acc) per []
                 |> List.sort_uniq compare |> List.length in
  let fr = float_of_int rounds in
  let split =
    List.map (fun (k, s) -> (k, s /. fr)) (on_path_total ~session:false)
    @ List.map
      (fun (k, s) -> (k, s /. float_of_int (max sessions 1) *. live.sessions_per_round))
      (on_path_total ~session:true)
    @ [ ("fleet.stream_overhead", Stat.mean stream_overhead) ]
    @ (if ctx.w.W.memo then [ ("verifier.replay (misses)", replay_us *. live.miss_share) ]
       else [])
  in
  let layer_total = List.fold_left (fun a (_, v) -> a +. v) 0.0 split in
  let handshake = med [ Hello_in; Welcome_out; Bye_in ] in
  let metrics =
    [ ("verifier.replay_us", replay_us, "us");
      ("verifier.replay_steps_per_s", steps_per_s, "1/s");
      ("wire.decode_us", per_call Wire_decode, "us");
      ("verifier.precheck_us", per_call Precheck, "us");
      ("memo.lookup_us", per_call Memo_lookup, "us");
      ("codec.report_in_us", per_call Report_in, "us");
      ("codec.verdict_out_us", per_call Verdict_out, "us");
      ("codec.ready_in_us", per_call Ready_in, "us");
      ("codec.request_out_us", per_call Request_out, "us");
      ("protocol.gate_issue_us", per_call Gate_issue, "us");
      ("protocol.gate_redeem_us", per_call Gate_redeem, "us");
      ("fleet.stream_overhead_us", Stat.percentile stream_overhead 50.0, "us");
      ("codec.handshake_us", handshake, "us");
      ("protocol.make_gate_us", per_call Make_gate, "us");
      ("lifecycle.admit_us", per_call Admit, "us");
      ("lifecycle.recheck_us", per_call Recheck, "us");
      ("driver.attest_us", per_call Attest, "us");
      ("gateway.layer_us_per_round", layer_total, "us");
      ("gateway.residual_us_per_round",
       live.gw_cpu_us_per_round -. layer_total, "us");
      ("trace.overhead_pct", overhead_pct, "%") ]
  in
  let base = if n > 0 then sp.sp_t0.(0) else 0 in
  let events =
    List.init n (fun i ->
        Printf.sprintf
          "{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \
           \"pid\": %d, \"tid\": 1, \"args\": {\"id\": %d, \"parent\": %d, \
           \"round\": %d, \"self_us\": %.3f}}"
          (name_to_string sp.sp_name.(i))
          (if sp.sp_probe.(i) then "probe"
           else if sp.sp_name.(i) = Attest then "prover" else "gateway")
          (float_of_int (sp.sp_t0.(i) - base) /. 1e3) (dur i) pid i
          sp.sp_parent.(i) sp.sp_unit.(i) self.(i))
  in
  { metrics; layer_split = split; mismatches = ctx.mismatches; rounds; events }

let run (w : W.t) ~seed ~(captured : D.captured array) ~live ~pid =
  let built = Dialed_apps.Apps.build w.W.app in
  let plan = F.Plan.of_built built in
  let vplan = F.Plan.vplan plan in
  let ns = C.Verifier.plan_memo_ns vplan in
  let memo = if w.W.memo then Some (F.Memo.handle (F.Memo.create ()) ~ns) else None in
  let ctx =
    { w; vplan; args = w.W.app.Dialed_apps.Apps.benign_args; memo;
      probe_memo = F.Memo.handle (F.Memo.create ()) ~ns;
      stream =
        F.Fleet.stream ~domains:1
          ?memo:(if w.W.memo then Some (F.Memo.create ()) else None)
          plan;
      scratch = C.Verifier.scratch (); lc = W.registry ~seed;
      prover = W.prover w ~seed built;
      ready_frame = frame N.Codec.Ready; bye_frame = frame N.Codec.Bye;
      mismatches = 0 }
  in
  let groups = by_session captured in
  let rounds = Array.length captured in
  let sp = spans (24 * (rounds + List.length groups + 1)) in
  (* untimed pass: memos and caches reach the live run's steady state *)
  ignore (pass ctx sp groups ~traced:(fun _ -> false) : int * int);
  (* two passes, tracing even then odd sessions: every session is traced
     once, and traced and untraced work interleave in time, so host
     noise falls on both sides of the overhead comparison alike *)
  let on1, off1 = pass ctx sp groups ~traced:(fun i -> i mod 2 = 0) in
  let on2, off2 = pass ctx sp groups ~traced:(fun i -> i mod 2 = 1) in
  ignore (F.Fleet.stream_close ctx.stream : F.Fleet.summary);
  let on = on1 + on2 and off = off1 + off2 in
  let overhead_pct = 100.0 *. float_of_int (on - off) /. float_of_int (max off 1) in
  analyse ctx sp ~live ~overhead_pct ~rounds ~pid
