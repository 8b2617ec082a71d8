(* End-to-end attestation benchmark: device report in, verdict out,
   through the real TCP gateway; see README.md. *)

module W = Workload
module D = Driver

let usage =
  {|usage:
  main.exe [--workload NAME] [--seed N] [--seconds S] [--runs N]
           [--trace 0|1] [--smoke] [--out FILE]
  main.exe compare A.json B.json [--benchmark FILE]
  main.exe gateway --workload NAME --seed N [--cpu C]   (the gateway child)|}

type opts = {
  mutable workload : string option;   (* None: all four *)
  mutable seed : int;
  mutable seconds : float;            (* measured window *)
  mutable warmup : float;             (* discarded lead-in *)
  mutable setups : int;               (* gateway start-ups per run *)
  mutable runs : int;                 (* seeds seed .. seed+runs-1 *)
  mutable trace : int option;         (* None: live and traced metrics *)
  mutable out : string;
  mutable cpu : int option;           (* the gateway child's CPU *)
}

let die msg = prerr_endline msg; prerr_endline usage; exit 2

let parse args =
  let o =
    { workload = None; seed = 1; seconds = 20.0; warmup = 2.0; setups = 25;
      runs = 1; trace = None; out = "bench/e2e/results.json"; cpu = None }
  in
  let num f v = match f v with Some x -> x | None -> die ("bad number: " ^ v) in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- Some v; go rest
    | "--seed" :: v :: rest -> o.seed <- num int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> o.seconds <- num float_of_string_opt v; go rest
    | "--runs" :: v :: rest -> o.runs <- max 1 (num int_of_string_opt v); go rest
    | "--trace" :: v :: rest -> o.trace <- Some (num int_of_string_opt v); go rest
    | "--out" :: v :: rest -> o.out <- v; go rest
    | "--cpu" :: v :: rest -> o.cpu <- Some (num int_of_string_opt v); go rest
    | "--smoke" :: rest ->
      o.seconds <- 1.0; o.warmup <- 0.3; o.setups <- 1; go rest
    | a :: _ -> die ("unknown argument: " ^ a)
  in
  go args;
  o

let workloads o =
  match o.workload with
  | None -> W.all
  | Some name ->
    (match W.find name with Some w -> [ w ] | None -> die ("unknown workload " ^ name))

(* ---- one run ---- *)

type run = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
  json : Json.t;
  events : string list;
}

let rounds_captured = 1000

let run_one o (w : W.t) ~seed ~pid =
  let trace = o.trace <> Some 0 in
  (* set up several times, keep the last gateway for the load *)
  let rec setups k acc =
    let g = Gateway.spawn w ~seed in
    if k <= 1 then (g, g.Gateway.setup_s :: acc)
    else begin
      ignore (Gateway.stop g : Json.t);
      setups (k - 1) (g.Gateway.setup_s :: acc)
    end
  in
  let gw, setup_times = setups o.setups [] in
  let live =
    D.run w ~seed ~port:gw.Gateway.port ~gw_pid:gw.Gateway.pid ~warmup:o.warmup
      ~seconds:o.seconds ~capture:(if trace then rounds_captured else 0)
  in
  let stats = Gateway.stop gw in
  let st k = Json.to_num (Json.member k stats) in
  let memo = Json.member "memo" stats in
  let hits = Json.to_num (Json.member "hits" memo)
  and misses = Json.to_num (Json.member "misses" memo) in
  let received = st "reports_received" in
  let bins = Array.to_list live.D.bins in
  let sum f = List.fold_left (fun a b -> a +. f b) 0.0 bins in
  let all f = Array.concat (List.map f bins) in
  let rounds = sum (fun b -> float_of_int b.D.rounds) in
  let sessions = sum (fun b -> float_of_int b.D.sessions) in
  let window = sum (fun b -> b.D.secs) in
  let gw_cpu = sum (fun b -> b.D.gw_cpu_s) and drv_cpu = sum (fun b -> b.D.drv_cpu_s) in
  let steal = sum (fun b -> b.D.steal_s) /. window in
  let round_ms = all (fun b -> b.D.round_ms) and session_ms = all (fun b -> b.D.session_ms) in
  let p a q = Stat.percentile a q in
  let per_round x = x *. 1e6 /. Float.max rounds 1.0 in
  (* each second's p90 over the sessions that ended in it: a burst of
     host contention owns the pooled tail of any second it hits, but not
     the median second unless it covers half the window *)
  let session_p90_s =
    List.filter_map
      (fun b -> if b.D.session_ms = [||] then None else Some (p b.D.session_ms 90.0))
      bins
  in
  (* the end-to-end metrics BENCHMARK.json bounds *)
  let e2e =
    [ ("session_p90_ms", Stat.median_list session_p90_s, "ms");
      ("setup_s", Stat.median_list setup_times, "s") ]
  in
  let failed_share =
    float_of_int live.D.failed /. float_of_int (max live.D.attempted 1)
  in
  (* what a user sees too, but on a shared 2-core host noisier across
     runs than the largest bound allows on some workload, or implied by
     another metric; and the driver's own cost, kept apart *)
  let unbounded =
    [ ("rounds_per_s", rounds /. window, "1/s");
      ("gateway_cpu_us_per_round", per_round gw_cpu, "us");
      ("round_p50_ms", p round_ms 50.0, "ms");
      ("round_p99_ms", p round_ms 99.0, "ms");
      ("sessions_per_s", sessions /. window, "1/s");
      ("session_p50_ms", p session_ms 50.0, "ms");
      ("session_p99_ms", p session_ms 99.0, "ms");
      ("gateway_rss_mb", live.D.rss_mb, "MB");
      ("driver_cpu_us_per_round", per_round drv_cpu, "us") ]
  in
  let live_layers =
    unbounded
    @ [ ("server.memo_hit_rate",
         (if memo = Json.Null then 0.0 else hits /. Float.max 1.0 (hits +. misses)),
         "ratio");
        ("server.frames_per_round", st "frames_rx" /. Float.max 1.0 received, "count");
        ("server.bytes_rx_per_round", st "bytes_rx" /. Float.max 1.0 received, "bytes");
        ("gateway.cpu_util", gw_cpu /. window, "ratio");
        ("driver.cpu_util", drv_cpu /. window, "ratio");
        ("host.steal_share", steal, "ratio");
        ("driver.late_p99_ms", p live.D.late_ms 99.0, "ms");
        ("transport.connect_us", p live.D.connect_us 50.0, "us");
        ("server.busy_overflow_timeouts",
         st "rate_limited" +. st "window_overflow" +. st "deadline_timeouts",
         "count") ]
  in
  let traced =
    if not trace then None
    else
      Some
        (Trace.run w ~seed ~captured:live.D.captured ~pid
           ~live:
             { Trace.gw_cpu_us_per_round = per_round gw_cpu;
               sessions_per_round = sessions /. Float.max rounds 1.0;
               miss_share = misses /. Float.max 1.0 received })
  in
  let checks =
    [ ("every verdict matches its round's seeded kind", live.D.wrong = 0);
      ("verdict counts by kind match the seeded expectation",
       List.for_all (fun (_, e, s) -> e = s) live.D.kinds);
      ("gateway protocol_errors = 0", st "protocol_errors" = 0.0);
      ("gateway received = accepted + rejected",
       received = st "verdicts_accepted" +. st "verdicts_rejected");
      ("gateway verdict counts = driver verdict counts",
       st "verdicts_accepted" = float_of_int live.D.accepted
       && st "verdicts_rejected" = float_of_int live.D.rejected);
      ("traced verdicts = live verdicts",
       match traced with Some t -> t.Trace.mismatches = 0 | None -> true) ]
  in
  List.iter (fun (what, ok) -> if not ok then Printf.eprintf "e2e: CHECK FAILED: %s\n%!" what)
    checks;
  let correct = List.for_all snd checks in
  let layers =
    live_layers @ (match traced with Some t -> t.Trace.metrics | None -> [])
  in
  (* ---- report ---- *)
  Printf.printf "\n== %s (seed %d) ==\n%s\n" w.W.name seed w.W.why;
  Printf.printf
    "window %.2f s: %.0f rounds, %.0f sessions; %d attempted, %d failed \
     (failed_share %.6f)\n"
    window rounds sessions live.D.attempted live.D.failed failed_share;
  List.iter
    (fun (k, e, s) -> Printf.printf "  verdicts %-11s expected %7d  seen %7d\n" k e s)
    live.D.kinds;
  let print (k, v, u) = Printf.printf "  %-32s %14.4f %s\n" k v u in
  Printf.printf " end to end:\n";
  List.iter print e2e;
  Printf.printf
    "  (%d round latencies, %d session latencies over %d seconds, %d set-ups)\n"
    (Array.length round_ms) (Array.length session_ms) (List.length session_p90_s)
    o.setups;
  Printf.printf " per layer:\n";
  List.iter print layers;
  (match traced with
   | Some t ->
     Printf.printf " gateway CPU per round, %d traced rounds (us):\n" t.Trace.rounds;
     List.iter (fun (k, v) -> Printf.printf "  %-32s %10.2f\n" k v) t.Trace.layer_split
   | None -> ());
  if drv_cpu /. window > 0.9 then
    Printf.printf
      "  WARNING: driver.cpu_util %.2f > 0.9: the numbers measure the driver\n"
      (drv_cpu /. window);
  if steal > 0.01 then
    Printf.printf
      "  WARNING: host.steal_share %.3f: the hypervisor took CPU time during \
       the window, so its timings are inflated\n"
      steal;
  let metrics_json l =
    Json.Obj (List.map (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) l)
  in
  let json =
    Json.Obj
      [ ("workload", Json.Str w.W.name); ("seed", Json.Num (float_of_int seed));
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int live.D.attempted));
        ("failed", Json.Num (float_of_int live.D.failed));
        ("window_s", Json.Num window);
        ("rounds", Json.Num rounds);
        ("sessions", Json.Num sessions);
        ("verdicts",
         Json.Obj
           (List.map
              (fun (k, e, s) ->
                 (k, Json.Obj [ ("expected", Json.Num (float_of_int e));
                                ("seen", Json.Num (float_of_int s)) ]))
              live.D.kinds));
        ("checks", Json.Obj (List.map (fun (k, ok) -> (k, Json.Bool ok)) checks));
        ("metrics", metrics_json (e2e @ [ ("failed_share", failed_share, "ratio") ]));
        (* second by second: shows whether the host slowed part of a run *)
        ("per_second",
         let series f = Json.Arr (List.map (fun b -> Json.Num (f b)) bins) in
         Json.Obj
           [ ("secs", series (fun b -> b.D.secs));
             ("rounds", series (fun b -> float_of_int b.D.rounds));
             ("gw_cpu_s", series (fun b -> b.D.gw_cpu_s));
             ("drv_cpu_s", series (fun b -> b.D.drv_cpu_s));
             ("steal_s", series (fun b -> b.D.steal_s));
             ("round_p50_ms", series (fun b -> p b.D.round_ms 50.0));
             ("session_p90_ms", series (fun b -> p b.D.session_ms 90.0)) ]);
        ("per_layer", metrics_json layers);
        ("layer_split_us_per_round",
         match traced with
         | Some t -> Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) t.Trace.layer_split)
         | None -> Json.Null);
        ("gateway_stats", stats) ]
  in
  { workload = w.W.name; seed; correct; attempted = live.D.attempted;
    failed = live.D.failed; e2e; layers; json;
    events = (match traced with Some t -> t.Trace.events | None -> []) }

(* ---- files ---- *)

let read_file = Compare.read_file

let git_rev () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let r = String.sub head 5 (String.length head - 5) in
    (match String.trim (read_file (".git/" ^ r)) with
     | rev -> rev
     | exception Sys_error _ ->
       (match read_file ".git/packed-refs" with
        | exception Sys_error _ -> "unknown"
        | packed ->
          List.find_map
            (fun l ->
               match String.split_on_char ' ' l with
               | [ rev; name ] when name = r -> Some rev
               | _ -> None)
            (String.split_on_char '\n' packed)
          |> Option.value ~default:"unknown"))
  | rev -> rev

let write path contents =
  match open_out_bin path with
  | oc -> output_string oc contents; close_out oc; true
  | exception Sys_error e -> Printf.eprintf "e2e: not written: %s\n%!" e; false

let header o =
  Json.Obj
    [ ("git_rev", Json.Str (git_rev ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("traffic", Json.Str "TCP over 127.0.0.1");
      ("gateway", Json.Str "child process: Server.serve_forever, Evloop engine, domains = 1");
      ("driver", Json.Str "1 thread, at most 2 connections");
      ("cpus",
       Json.Str
         (match Lazy.force Gateway.placement with
          | Some (d, g) -> Printf.sprintf "driver on CPU %d, gateway on CPU %d" d g
          | None -> "unpinned: fewer than 2 CPUs"));
      ("warmup_s", Json.Num o.warmup); ("seconds", Json.Num o.seconds);
      ("setups", Json.Num (float_of_int o.setups));
      ("seed", Json.Num (float_of_int o.seed));
      ("runs", Json.Num (float_of_int o.runs));
      ("trace",
       Json.Str (match o.trace with Some 0 -> "off" | Some _ -> "on" | None -> "on")) ]

let main o =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match Lazy.force Gateway.placement with
   | Some (d, _) -> ignore (Gateway.pin_cpu d : bool)
   | None -> ());
  let ws = workloads o in
  let runs =
    List.concat
      (List.init o.runs (fun i ->
           List.mapi
             (fun j w -> run_one o w ~seed:(o.seed + i) ~pid:((i * List.length ws) + j + 1))
             ws))
  in
  let results = Json.Obj [ ("header", header o); ("runs", Json.Arr (List.map (fun r -> r.json) runs)) ] in
  if write o.out (Json.to_string results ^ "\n") then
    Printf.printf "\nwrote %s\n" o.out;
  let events = List.concat_map (fun r -> r.events) runs in
  if events <> [] then begin
    let path = Filename.concat (Filename.dirname o.out) "trace.json" in
    let names =
      List.mapi
        (fun i r ->
           Printf.sprintf
             "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"args\": {\"name\": \"%s seed %d\"}}"
             (i + 1) r.workload r.seed)
        runs
    in
    if write path ("{\"traceEvents\": [\n" ^ String.concat ",\n" (names @ events) ^ "\n]}\n")
    then Printf.printf "wrote %s\n" path
  end;
  (* last line: the machine-readable result *)
  let single = List.length ws = 1 in
  let pick r =
    match o.trace with
    | Some 0 -> r.e2e
    | Some _ -> r.layers
    | None -> r.e2e @ r.layers
  in
  let metrics =
    List.concat_map
      (fun (w : W.t) ->
         let mine = List.filter (fun r -> r.workload = w.W.name) runs in
         List.map
           (fun (k, _, u) ->
              let vs =
                List.map (fun r -> let _, v, _ = List.find (fun (k', _, _) -> k' = k) (pick r) in v) mine
              in
              ((if single then k else w.W.name ^ "/" ^ k),
               Json.Obj [ ("value", Json.Num (Stat.median_list vs)); ("unit", Json.Str u) ]))
           (pick (List.hd mine)))
      ws
  in
  let correct = List.for_all (fun r -> r.correct) runs in
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int (sum (fun r -> r.attempted))));
            ("failed", Json.Num (float_of_int (sum (fun r -> r.failed))));
            ("metrics", Json.Obj metrics) ]));
  exit (if correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "gateway" :: rest ->
    let o = parse rest in
    (match o.workload with
     | Some name ->
       (match W.find name with
        | Some w -> Gateway.serve w ~seed:o.seed ~cpu:o.cpu
        | None -> die ("unknown workload " ^ name))
     | None -> die "gateway: --workload required")
  | "compare" :: a :: b :: rest ->
    let benchmark =
      match rest with
      | [] -> "BENCHMARK.json"
      | [ "--benchmark"; f ] -> f
      | _ -> die "compare: bad arguments"
    in
    (match Compare.run ~benchmark a b with
     | code -> exit code
     | exception (Sys_error e | Json.Parse_error e) -> die ("compare: " ^ e))
  | args -> main (parse args)
