(* Command-line front end.

     dialed list
     dialed compile  [--app NAME | --file F --entry E]
     dialed instrument [--app NAME ...] [--variant unmodified|cfa|dialed]
     dialed run      [--app NAME] [--variant V] [--arg N]...
     dialed attest   [--app NAME] [--arg N]...
     dialed fleet    [--app NAME (default fire-sensor)] [--count N]
                     [--domains D] [--tamper K] [--memo]
     dialed disasm   [--app NAME] [--variant V]
     dialed lint     [--app NAME | --file F | --all] [--variant V] [--json]
                     [--loop-bound K] [--require-bounded]
     dialed serve    [--app NAME] [--port P] [--domains D] [--rate R]
                     [--max-window W] ...
     dialed prover   [--app NAME] [--host H] [--port P] [--rounds N]
                     [--device-id ID] [--tamper] [--pipeline W]
                     [--firmware V]
     dialed devices  --registry FILE [--register ID --key K]
                     [--quarantine ID] [--release ID] [--json]
     dialed revoke   --registry FILE KEY...
     dialed rollout  --registry FILE [--stable V] [--canary V --percent P]
                     [--promote] [--rollback] [--json]

   Exit codes are uniform across commands:
     0  success — verification accepted, audit clean, output produced
     1  rejection — a verdict was rejected or the audit found problems
     2  usage, IO, or build error
*)

module M = Dialed_msp430
module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module N = Dialed_net
module L = Dialed_lifecycle.Lifecycle
module S = Dialed_staticcheck
module Apps = Dialed_apps.Apps
module Minic = Dialed_minic.Minic

open Cmdliner

let apps_by_name =
  List.map (fun a -> (a.Apps.name, a)) (Apps.syringe_pump_vuln :: Apps.all)

let variant_of_string s =
  match s with
  | "unmodified" | "plain" -> Ok C.Pipeline.Unmodified
  | "cfa" | "tiny-cfa" -> Ok C.Pipeline.Cfa_only
  | "dialed" | "full" -> Ok C.Pipeline.Full
  | _ -> Error (`Msg (Printf.sprintf "unknown variant %S" s))

let variant_conv =
  Arg.conv
    ( (fun s -> variant_of_string s),
      fun ppf v ->
        Format.pp_print_string ppf (C.Pipeline.variant_name v) )

let app_arg =
  let doc = "Application name (see 'dialed list')." in
  Arg.(value & opt (some string) None & info [ "app" ] ~docv:"NAME" ~doc)

let file_arg =
  let doc = "MiniC source file (alternative to --app)." in
  Arg.(value & opt (some file) None & info [ "file" ] ~docv:"FILE" ~doc)

let entry_arg =
  let doc = "Entry function for --file sources." in
  Arg.(value & opt string "main" & info [ "entry" ] ~docv:"FUNC" ~doc)

let variant_arg =
  let doc = "Instrumentation variant: unmodified, cfa, or dialed." in
  Arg.(value & opt variant_conv C.Pipeline.Full & info [ "variant" ] ~doc)

let args_arg =
  let doc = "Operation argument (repeatable; first lands in r15)." in
  Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N" ~doc)

let trace_arg =
  let doc = "Print an execution trace (up to N lines, middle elided)." in
  Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"N" ~doc)

let load_source app file entry =
  match app, file with
  | Some name, None ->
    (match List.assoc_opt name apps_by_name with
     | Some a -> Ok (a.Apps.source, a.Apps.entry, Some a)
     | None -> Error (`Msg (Printf.sprintf "unknown app %S" name)))
  | None, Some path ->
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok (s, entry, None)
  | None, None -> Error (`Msg "one of --app or --file is required")
  | Some _, Some _ -> Error (`Msg "--app and --file are exclusive")

let build_from ?(selective = false) source entry app variant =
  let compiled = Minic.compile ~entry source in
  let or_min =
    match app with Some a -> a.Apps.or_min | None -> 0x0280
  in
  let dfa_config =
    if selective then
      { C.Dfa.default_config with
        C.Dfa.selective =
          Some { C.Dfa.critical = List.map fst compiled.Minic.criticals } }
    else C.Dfa.default_config
  in
  C.Pipeline.build ~variant ~dfa_config ~critical:compiled.Minic.criticals
    ~data:compiled.Minic.data ~op:compiled.Minic.op ~or_min ()

(* Commands evaluate to an exit status: [Ok 0] (success) or [Ok 1]
   (rejection / findings). Usage, IO, and build failures stay in the
   [Error `Msg] channel, which the driver maps to exit 2 alongside
   cmdliner's own parse errors. *)
let wrap f = try f () with
  | Minic.Error msg | C.Pipeline.Error msg -> Error (`Msg msg)
  | Dialed_tinycfa.Instrument.Error msg | C.Dfa.Error msg -> Error (`Msg msg)
  | Unix.Unix_error (e, fn, arg) ->
    Error (`Msg (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))

let exits =
  [ Cmd.Exit.info 0 ~doc:"on success (verification accepted, audit clean).";
    Cmd.Exit.info 1
      ~doc:"on rejection (a verdict was rejected or the audit reported \
            findings).";
    Cmd.Exit.info 2 ~doc:"on usage, IO, or build errors." ]

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Format.printf "%-20s %s@." "name" "description";
    Format.printf "%s@." (String.make 64 '-');
    List.iter
      (fun (name, a) -> Format.printf "%-20s %s@." name a.Apps.description)
      apps_by_name;
    Ok 0
  in
  Cmd.v (Cmd.info "list" ~exits ~doc:"List the bundled applications")
    Term.(term_result (const run $ const ()))

let compile_cmd =
  let run app file entry =
    wrap (fun () ->
        match load_source app file entry with
        | Error e -> Error e
        | Ok (source, entry, _) ->
          let compiled = Minic.compile ~entry source in
          print_string compiled.Minic.op_text;
          Ok 0)
  in
  Cmd.v
    (Cmd.info "compile" ~exits
       ~doc:"Compile MiniC and print the generated assembly")
    Term.(term_result (const run $ app_arg $ file_arg $ entry_arg))

let instrument_cmd =
  let run app file entry variant =
    wrap (fun () ->
        match load_source app file entry with
        | Error e -> Error e
        | Ok (source, entry, a) ->
          let built = build_from source entry a variant in
          print_string (M.Program.to_string built.C.Pipeline.program);
          Ok 0)
  in
  Cmd.v
    (Cmd.info "instrument" ~exits
       ~doc:"Print the full instrumented program (with caller shim)")
    Term.(term_result (const run $ app_arg $ file_arg $ entry_arg $ variant_arg))

let disasm_cmd =
  let run app file entry variant =
    wrap (fun () ->
        match load_source app file entry with
        | Error e -> Error e
        | Ok (source, entry, a) ->
          let built = build_from source entry a variant in
          let mem = M.Memory.create () in
          M.Assemble.load built.C.Pipeline.image mem;
          let l = built.C.Pipeline.layout in
          Format.printf "%a" (M.Disasm.pp_range mem ~lo:l.A.Layout.er_min
                                ~hi:l.A.Layout.er_max) ();
          Ok 0)
  in
  Cmd.v (Cmd.info "disasm" ~exits ~doc:"Disassemble the assembled ER")
    Term.(term_result (const run $ app_arg $ file_arg $ entry_arg $ variant_arg))

let setup_device app device =
  match app with Some a -> a.Apps.setup device | None -> ()

let run_cmd =
  let run app file entry variant args trace_n =
    wrap (fun () ->
        match load_source app file entry with
        | Error e -> Error e
        | Ok (source, entry, a) ->
          let built = build_from source entry a variant in
          let device = C.Pipeline.device built in
          setup_device a device;
          let args =
            if args = [] then
              match a with Some a -> a.Apps.benign_args | None -> []
            else args
          in
          let trace = M.Trace.create () in
          let on_step =
            match trace_n with
            | Some _ -> Some (M.Trace.record trace)
            | None -> None
          in
          let result = A.Device.run_operation ~args ?on_step device in
          Format.printf
            "variant=%s completed=%b exec=%b steps=%d cycles=%d code=%dB@."
            (C.Pipeline.variant_name variant) result.A.Device.completed
            (A.Monitor.exec_flag (A.Device.monitor device))
            result.A.Device.steps result.A.Device.cycles
            (C.Pipeline.code_size_bytes built);
          (match variant with
           | C.Pipeline.Unmodified -> ()
           | _ ->
             let oplog = C.Oplog.of_device device in
             Format.printf "log: %d bytes used@."
               (C.Oplog.used_bytes oplog
                  ~final_r4:(M.Cpu.get_reg (A.Device.cpu device) 4)));
          let writes = M.Peripherals.gpio_writes (A.Device.board device) in
          if writes <> [] then begin
            Format.printf "gpio:";
            List.iter (fun (p, v) -> Format.printf " %s<-0x%02x" p v) writes;
            Format.printf "@."
          end;
          let sent = M.Peripherals.uart_sent (A.Device.board device) in
          if sent <> [] then begin
            Format.printf "uart tx:";
            List.iter (Format.printf " %02x") sent;
            Format.printf "@."
          end;
          (match trace_n with
           | Some limit ->
             Format.printf "trace (%d steps, %d cycles):@."
               (M.Trace.length trace) (M.Trace.total_cycles trace);
             M.Trace.pp ~limit Format.std_formatter trace
           | None -> ());
          Ok 0)
  in
  Cmd.v (Cmd.info "run" ~exits
           ~doc:"Run an operation on the simulated prover")
    Term.(term_result
            (const run $ app_arg $ file_arg $ entry_arg $ variant_arg $ args_arg
             $ trace_arg))

let attest_cmd =
  let run app file entry args =
    wrap (fun () ->
        match load_source app file entry with
        | Error e -> Error e
        | Ok (source, entry, a) ->
          let built = build_from source entry a C.Pipeline.Full in
          let device = C.Pipeline.device built in
          setup_device a device;
          let args =
            if args = [] then
              match a with Some a -> a.Apps.benign_args | None -> []
            else args
          in
          let verifier = C.Verifier.create built in
          let session = C.Protocol.make_session verifier in
          let request = C.Protocol.next_request session ~args in
          let report, result = C.Protocol.prover_execute device request in
          let outcome = C.Protocol.check_response session request report in
          Format.printf "device: completed=%b exec=%b@."
            result.A.Device.completed report.A.Pox.exec;
          Format.printf "verifier: %a@." C.Verifier.pp_outcome outcome;
          (match outcome.C.Verifier.trace with
           | Some trace ->
             Format.printf
               "replay: %d steps, %d control-flow events, %d inputs@."
               trace.C.Verifier.step_count
               (List.length trace.C.Verifier.cf_dests)
               (List.length trace.C.Verifier.inputs)
           | None -> ());
          Ok (if outcome.C.Verifier.accepted then 0 else 1))
  in
  Cmd.v
    (Cmd.info "attest" ~exits
       ~doc:"Full round: run, attest, verify by replay")
    Term.(term_result (const run $ app_arg $ file_arg $ entry_arg $ args_arg))

let fleet_cmd =
  let count_arg =
    let doc = "Number of simulated devices in the fleet." in
    Arg.(value & opt int 64 & info [ "count" ] ~docv:"N" ~doc)
  in
  let domains_arg =
    let doc = "Verifier worker domains (1 = strictly serial)." in
    Arg.(value & opt int (Domain.recommended_domain_count ())
         & info [ "domains" ] ~docv:"D" ~doc)
  in
  let tamper_arg =
    let doc = "Tamper with the last K reports (flip one OR log byte each)." in
    Arg.(value & opt int 0 & info [ "tamper" ] ~docv:"K" ~doc)
  in
  let memo_arg =
    let doc =
      "Arm the verdict memo: repeat log shapes skip the abstract replay \
       (the HMAC token check still runs per report). Prints hit/miss \
       counters with the summary."
    in
    Arg.(value & flag & info [ "memo" ] ~doc)
  in
  let run app file entry args count domains tamper use_memo =
    (* a fleet of the paper's fire sensors unless told otherwise *)
    let app =
      match app, file with None, None -> Some "fire-sensor" | _ -> app
    in
    wrap (fun () ->
        match load_source app file entry with
        | Error e -> Error e
        | Ok (source, entry, a) ->
          if count < 1 then Error (`Msg "--count must be positive")
          else begin
            let built = build_from source entry a C.Pipeline.Full in
            let args =
              if args = [] then
                match a with Some a -> a.Apps.benign_args | None -> []
              else args
            in
            let batch =
              List.init count (fun i ->
                  let device = C.Pipeline.device built in
                  setup_device a device;
                  ignore (A.Device.run_operation ~args device);
                  let report =
                    A.Device.attest device
                      ~challenge:(Printf.sprintf "fleet-%06d" i)
                  in
                  let report =
                    if i < count - tamper then report
                    else begin
                      (* compromised node: forge one word of the log *)
                      let or_data = Bytes.of_string report.A.Pox.or_data in
                      let j = Bytes.length or_data - 24 in
                      Bytes.set or_data j
                        (Char.chr (Char.code (Bytes.get or_data j) lxor 0xFF));
                      { report with A.Pox.or_data = Bytes.to_string or_data }
                    end
                  in
                  (Printf.sprintf "dev-%06d" i, report))
            in
            let plan = F.Plan.of_built built in
            let memo = if use_memo then Some (F.Memo.create ()) else None in
            let summary = F.Fleet.verify_batch ~domains ?memo plan batch in
            Format.printf "firmware %s@."
              (String.sub (F.Plan.fingerprint plan) 0 16);
            Format.printf "%a@." F.Fleet.pp_summary summary;
            (match memo with
             | Some m -> Format.printf "%a@." F.Memo.pp_stats (F.Memo.stats m)
             | None -> ());
            Format.printf "json: %s@."
              (F.Metrics.to_json summary.F.Fleet.metrics);
            Ok (if summary.F.Fleet.metrics.F.Metrics.rejected > 0 then 1
                else 0)
          end)
  in
  Cmd.v
    (Cmd.info "fleet" ~exits
       ~doc:"Verify a simulated device fleet in parallel (batch replay)")
    Term.(term_result
            (const run $ app_arg $ file_arg $ entry_arg $ args_arg $ count_arg
             $ domains_arg $ tamper_arg $ memo_arg))

let lint_cmd =
  let all_arg =
    let doc = "Audit every bundled application." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the reports as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let loop_bound_arg =
    let doc =
      "Assume every loop iterates at most $(docv) times when bounding the \
       worst-case log footprint. Must be positive (exit 2 otherwise)."
    in
    Arg.(value & opt (some int) None & info [ "loop-bound" ] ~docv:"K" ~doc)
  in
  let require_bounded_arg =
    let doc = "Treat an unbounded worst-case log footprint as a finding." in
    Arg.(value & flag & info [ "require-bounded" ] ~doc)
  in
  let no_dataflow_arg =
    let doc =
      "Skip the taint dataflow pass (pattern and discipline checks only). \
       The dataflow pass is on by default and is mandatory for selective \
       builds."
    in
    Arg.(value & flag & info [ "no-dataflow" ] ~doc)
  in
  let selective_arg =
    let doc =
      "Audit the OAT-style selective build: F4 logging reduced to the \
       source's 'critical' globals, with read guards elsewhere."
    in
    Arg.(value & flag & info [ "selective" ] ~doc)
  in
  let sarif_arg =
    let doc = "Also write the findings as a SARIF 2.1.0 log to $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "sarif" ] ~docv:"FILE" ~doc)
  in
  let run app file entry variant all json loop_bound require_bounded
      no_dataflow selective sarif =
    wrap (fun () ->
        match loop_bound with
        | Some k when k <= 0 ->
          Error (`Msg (Printf.sprintf "--loop-bound must be positive (got %d)" k))
        | _ ->
          let config =
            { S.Audit.default_config with
              S.Audit.loop_bound; S.Audit.require_bounded;
              S.Audit.dataflow = not no_dataflow }
          in
          let targets =
            if all then
              Ok (List.map
                    (fun (name, a) -> (name, a.Apps.source, a.Apps.entry, Some a))
                    apps_by_name)
            else
              match load_source app file entry with
              | Error e -> Error e
              | Ok (source, entry, a) ->
                let name =
                  match a, file with
                  | Some a, _ -> a.Apps.name
                  | None, Some f -> f
                  | None, None -> "stdin"
                in
                Ok [ (name, source, entry, a) ]
          in
          match targets with
          | Error e -> Error e
          | Ok targets ->
            let reports =
              List.map
                (fun (name, source, entry, a) ->
                   let built = build_from ~selective source entry a variant in
                   (name, C.Verifier.audit_built ~config built))
                targets
            in
            (match sarif with
             | Some path ->
               let oc = open_out_bin path in
               output_string oc
                 (S.Report.to_sarif_multi
                    (List.map (fun (name, r) -> (name ^ ".bin", r)) reports));
               output_char oc '\n';
               close_out oc
             | None -> ());
            if json then
              Format.printf "[%s]@."
                (String.concat ","
                   (List.map
                      (fun (name, r) ->
                         Printf.sprintf "{\"app\":%S,\"report\":%s}" name
                           (S.Report.to_json r))
                      reports))
            else
              List.iter
                (fun (name, r) ->
                   Format.printf "%s: %s@." name (S.Report.summary r);
                   if not (S.Report.ok r) then Format.printf "%a" S.Report.pp r)
                reports;
            let bad =
              List.filter (fun (_, r) -> not (S.Report.ok r)) reports
            in
            match bad with
            | [] -> Ok 0
            | bad ->
              Format.eprintf "static audit rejected %d binar%s@."
                (List.length bad) (if List.length bad = 1 then "y" else "ies");
              Ok 1)
  in
  Cmd.v
    (Cmd.info "lint" ~exits
       ~doc:"Statically audit an instrumented binary (exit 1 on findings)")
    Term.(term_result
            (const run $ app_arg $ file_arg $ entry_arg $ variant_arg $ all_arg
             $ json_arg $ loop_bound_arg $ require_bounded_arg
             $ no_dataflow_arg $ selective_arg $ sarif_arg))

let port_arg ~default =
  let doc = "TCP port (0 picks an ephemeral port)." in
  Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let domains_arg =
    let doc = "Verifier worker domains behind the gateway." in
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"D" ~doc)
  in
  let window_arg =
    let doc = "Fleet-stream in-flight window (backpressure bound)." in
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"W" ~doc)
  in
  let max_window_arg =
    let doc = "Largest per-session pipelining window granted to a \
               Hello_ex peer (legacy peers always get 1)." in
    Arg.(value & opt int 32 & info [ "max-window" ] ~docv:"W" ~doc)
  in
  let rate_arg =
    let doc = "Token-bucket challenge rate (challenges/sec); unlimited \
               when absent." in
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"R" ~doc)
  in
  let burst_arg =
    let doc = "Token-bucket burst size." in
    Arg.(value & opt float 8.0 & info [ "burst" ] ~docv:"B" ~doc)
  in
  let max_conns_arg =
    let doc = "Concurrent connection ceiling; excess connections get Busy." in
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Seconds a peer may take to complete one message \
               (slow-loris defense)." in
    Arg.(value & opt float 10.0 & info [ "deadline" ] ~docv:"S" ~doc)
  in
  let duration_arg =
    let doc = "Serve for $(docv) seconds, then print stats and exit \
               (default: until SIGINT)." in
    Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"S" ~doc)
  in
  let memo_flag_arg =
    let doc = "Arm the verdict memo with default bounds: repeat log \
               shapes skip the abstract replay; freshness and token \
               checks still run per report." in
    Arg.(value & flag & info [ "memo" ] ~doc)
  in
  let memo_entries_arg =
    let doc = "Verdict-memo entry ceiling (implies --memo)." in
    Arg.(value & opt (some int) None
         & info [ "memo-entries" ] ~docv:"N" ~doc)
  in
  let memo_bytes_arg =
    let doc = "Verdict-memo resident-byte ceiling (implies --memo)." in
    Arg.(value & opt (some int) None & info [ "memo-bytes" ] ~docv:"B" ~doc)
  in
  let registry_arg =
    let doc = "Device registry journal: replayed at startup, appended to \
               on every lifecycle transition. Arms lifecycle enforcement \
               (identity, revocation, firmware allowlist) on the gateway." in
    Arg.(value & opt (some string) None
         & info [ "registry" ] ~docv:"FILE" ~doc)
  in
  let no_anonymous_arg =
    let doc = "Refuse peers that greet without a registered device id \
               (default: anonymous legacy peers are served outside the \
               registry)." in
    Arg.(value & flag & info [ "no-anonymous" ] ~doc)
  in
  let firmware_plan_arg =
    let doc = "Map a claimed firmware version to a bundled app's verify \
               plan, e.g. $(b,--firmware-plan 1.1=syringe-pump). \
               Repeatable: a staged rollout keeps every mapped version's \
               plan resident in the gateway's plan cache. Sessions \
               claiming an unmapped (or no) version verify on the \
               default plan." in
    Arg.(value & opt_all string []
         & info [ "firmware-plan" ] ~docv:"VERSION=APP" ~doc)
  in
  let run app file entry args port domains window max_window rate burst
      max_conns deadline duration memo_flag memo_entries memo_bytes
      registry no_anonymous firmware_plans =
    let app =
      match app, file with None, None -> Some "fire-sensor" | _ -> app
    in
    wrap (fun () ->
        match load_source app file entry with
        | Error e -> Error e
        | Ok (source, entry, a) ->
          let built = build_from source entry a C.Pipeline.Full in
          (* route the build through a plan cache so the stats endpoint
             can report plan-cache counters alongside the memo's *)
          let pcache = F.Plan.cache () in
          let plan = F.Plan.find_or_build pcache built in
          let args =
            if args = [] then
              match a with Some a -> a.Apps.benign_args | None -> []
            else args
          in
          let fw_plans =
            List.fold_left
              (fun acc spec ->
                 match acc with
                 | Error _ as e -> e
                 | Ok acc ->
                   match String.index_opt spec '=' with
                   | None ->
                     Error (`Msg (Printf.sprintf
                                    "--firmware-plan expects VERSION=APP \
                                     (got %S)" spec))
                   | Some i ->
                     let version = String.sub spec 0 i in
                     let app_name =
                       String.sub spec (i + 1) (String.length spec - i - 1)
                     in
                     match List.assoc_opt app_name apps_by_name with
                     | None ->
                       Error (`Msg (Printf.sprintf "unknown app %S" app_name))
                     | Some ap ->
                       let b =
                         build_from ap.Apps.source ap.Apps.entry (Some ap)
                           C.Pipeline.Full
                       in
                       Ok ((version, F.Plan.find_or_build pcache b) :: acc))
              (Ok []) firmware_plans
          in
          match fw_plans with
          | Error e -> Error e
          | Ok fw_plans ->
          let lifecycle =
            if registry <> None || no_anonymous || fw_plans <> [] then
              Some (L.create ?journal:registry
                      ~allow_anonymous:(not no_anonymous) ())
            else None
          in
          let resolve_plan =
            match fw_plans with
            | [] -> None
            | plans -> Some (fun v -> List.assoc_opt v plans)
          in
          let listener, port = N.Transport.tcp_listener ~port () in
          let memo =
            if memo_flag || memo_entries <> None || memo_bytes <> None then
              Some
                { F.Memo.default_config with
                  F.Memo.max_entries =
                    Option.value memo_entries
                      ~default:F.Memo.default_config.F.Memo.max_entries;
                  max_bytes =
                    Option.value memo_bytes
                      ~default:F.Memo.default_config.F.Memo.max_bytes }
            else None
          in
          let config =
            { N.Server.default_config with
              N.Server.max_conns; domains; window; max_window;
              rate; burst; args; read_deadline = Some deadline; memo;
              plan_cache = Some pcache; lifecycle; resolve_plan }
          in
          let server = N.Server.create ~config ~plan listener in
          Format.printf "gateway: firmware %s on 127.0.0.1:%d@."
            (String.sub (F.Plan.fingerprint plan) 0 16) port;
          (match lifecycle with
           | Some lc ->
             let s = L.summary lc in
             Format.printf
               "registry: %d device(s), %d quarantined, %d revoked key(s)%s@."
               s.L.devices s.L.quarantined s.L.revoked_keys
               (if s.L.allow_anonymous then "" else ", anonymous refused")
           | None -> ());
          (match duration with
           | Some s -> N.Server.start server; Thread.delay s
           | None ->
             (* the handler runs on the serving thread itself, so it
                must only *request* the stop (lock-free); the blocking
                teardown happens below once serve_forever unwinds *)
             Sys.set_signal Sys.sigint
               (Sys.Signal_handle (fun _ -> N.Server.request_stop server));
             N.Server.serve_forever server);
          Format.printf "%a@." N.Server.pp_stats (N.Server.stop server);
          Option.iter L.close lifecycle;
          Ok 0)
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Serve attestation traffic: challenge provers over TCP and \
             judge their reports through the fleet verifier")
    Term.(term_result
            (const run $ app_arg $ file_arg $ entry_arg $ args_arg
             $ port_arg ~default:4242 $ domains_arg $ window_arg
             $ max_window_arg $ rate_arg $ burst_arg $ max_conns_arg
             $ deadline_arg $ duration_arg $ memo_flag_arg
             $ memo_entries_arg $ memo_bytes_arg $ registry_arg $ no_anonymous_arg $ firmware_plan_arg))

let prover_cmd =
  let host_arg =
    let doc = "Gateway host." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let device_id_arg =
    let doc = "Device identity announced in Hello." in
    Arg.(value & opt string "dev-000000"
         & info [ "device-id" ] ~docv:"ID" ~doc)
  in
  let rounds_arg =
    let doc = "Attestation rounds to run before disconnecting." in
    Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let tamper_arg =
    let doc = "Flip one byte of every report before sending (the gateway \
               must reject it)." in
    Arg.(value & flag & info [ "tamper" ] ~doc)
  in
  let pipeline_arg =
    let doc = "Pipeline the session with a window of $(docv) requests in \
               flight (negotiated down to the gateway's ceiling); \
               without this flag each round is a single-shot exchange." in
    Arg.(value & opt (some int) None & info [ "pipeline" ] ~docv:"W" ~doc)
  in
  let firmware_arg =
    let doc = "Firmware version to claim in the Hello_ex greeting \
               (pipelined sessions only); a lifecycle-enforcing gateway \
               checks it against the fleet rollout and verifies reports \
               on that version's plan." in
    Arg.(value & opt string "" & info [ "firmware" ] ~docv:"V" ~doc)
  in
  let run app file entry host port device_id rounds tamper pipeline firmware =
    let app =
      match app, file with None, None -> Some "fire-sensor" | _ -> app
    in
    wrap (fun () ->
        match load_source app file entry with
        | Error e -> Error e
        | Ok (source, entry, a) ->
          if rounds < 1 then Error (`Msg "--rounds must be positive")
          else if Option.fold ~none:false ~some:(fun w -> w < 1) pipeline then
            Error (`Msg "--pipeline must be >= 1")
          else if pipeline = None && firmware <> "" then
            Error (`Msg "--firmware requires --pipeline (legacy Hello \
                         carries no firmware claim)")
          else begin
            let built = build_from source entry a C.Pipeline.Full in
            let device () =
              let d = C.Pipeline.device built in
              setup_device a d;
              d
            in
            let mangle =
              if not tamper then None
              else
                Some
                  (fun (r : A.Pox.report) ->
                     let b = Bytes.of_string r.A.Pox.or_data in
                     let j = Bytes.length b / 2 in
                     Bytes.set b j
                       (Char.chr (Char.code (Bytes.get b j) lxor 0x01));
                     { r with A.Pox.or_data = Bytes.to_string b })
            in
            let config = { N.Client.default_config with N.Client.mangle } in
            let conn = N.Transport.tcp_connect ~host ~port () in
            Fun.protect ~finally:(fun () -> N.Transport.close conn)
              (fun () ->
                 let session =
                   match pipeline with
                   | Some window ->
                     N.Client.attest_pipelined ~config ~window ~firmware
                       ~device ~device_id ~rounds conn
                   | None ->
                     N.Client.attest_rounds ~config ~device ~device_id
                       ~rounds conn
                 in
                 if pipeline <> None then
                   Format.printf "pipelined session: window %d granted@."
                     session.N.Client.granted;
                 (match session.N.Client.denied with
                  | Some (cause, detail) ->
                    Format.printf "session denied: %s (%s)@."
                      (N.Codec.denial_to_string cause) detail
                  | None -> ());
                 Array.iteri
                   (fun i (r : N.Client.pipelined_round) ->
                      Format.printf "round %d: %s (%.1f ms)@." i
                        (if r.N.Client.p_accepted then "accepted"
                         else "rejected")
                        (1000.0 *. r.N.Client.p_latency);
                      List.iter
                        (fun (kind, detail) ->
                           Format.printf "  [%s] %s@." kind detail)
                        r.N.Client.p_findings)
                   session.N.Client.results;
                 let all_ok =
                   session.N.Client.denied = None
                   && Array.for_all
                        (fun (r : N.Client.pipelined_round) ->
                           r.N.Client.p_accepted)
                        session.N.Client.results
                 in
                 Ok (if all_ok then 0 else 1))
          end)
  in
  Cmd.v
    (Cmd.info "prover" ~exits
       ~doc:"Act as a prover: connect to a gateway, execute challenged \
             operations on the simulated device, and report")
    Term.(term_result
            (const run $ app_arg $ file_arg $ entry_arg $ host_arg
             $ port_arg ~default:4242 $ device_id_arg $ rounds_arg
             $ tamper_arg $ pipeline_arg $ firmware_arg))

(* ------------------------------------------------------------------ *)
(* Lifecycle administration: every command opens the registry journal
   (replaying it), applies its mutations (each one appended + flushed),
   and prints the resulting state — the same journal the gateway loads
   at startup, so admin actions taken between restarts are visible on
   the next one. *)

let registry_req_arg =
  let doc = "Device registry journal (created if absent)." in
  Arg.(required & opt (some string) None
       & info [ "registry" ] ~docv:"FILE" ~doc)

let with_registry file f =
  let lc = L.create ~journal:file () in
  Fun.protect ~finally:(fun () -> L.close lc) (fun () -> f lc)

let json_arg =
  let doc = "Emit the result as JSON." in
  Arg.(value & flag & info [ "json" ] ~doc)

let devices_cmd =
  let register_arg =
    let doc = "Register (or re-key) device $(docv); requires --key." in
    Arg.(value & opt (some string) None
         & info [ "register" ] ~docv:"ID" ~doc)
  in
  let key_arg =
    let doc = "Provisioning key id for --register (revocation is keyed \
               on this)." in
    Arg.(value & opt (some string) None & info [ "key" ] ~docv:"KEY" ~doc)
  in
  let quarantine_arg =
    let doc = "Quarantine device $(docv) (operator judgement; only \
               --release lets it back)." in
    Arg.(value & opt (some string) None
         & info [ "quarantine" ] ~docv:"ID" ~doc)
  in
  let release_arg =
    let doc = "Release device $(docv) from quarantine, back to \
               registered. Refused while its key is still revoked — \
               re-key it with --register --key first." in
    Arg.(value & opt (some string) None
         & info [ "release" ] ~docv:"ID" ~doc)
  in
  let run registry register key quarantine release json =
    wrap (fun () ->
        with_registry registry (fun lc ->
            let ( let* ) = Result.bind in
            let* () =
              match register, key with
              | Some id, Some key_id ->
                (match L.register lc ~id ~key_id with
                 | Ok () -> Ok ()
                 | Error m -> Error (`Msg m))
              | Some _, None -> Error (`Msg "--register requires --key")
              | None, Some _ -> Error (`Msg "--key requires --register")
              | None, None -> Ok ()
            in
            let* () =
              match quarantine with
              | None -> Ok ()
              | Some id ->
                if L.quarantine lc id then Ok ()
                else Error (`Msg (Printf.sprintf "unknown device %S" id))
            in
            let* () =
              match release with
              | None -> Ok ()
              | Some id ->
                (match L.release lc id with
                 | Ok () -> Ok ()
                 | Error m -> Error (`Msg m))
            in
            let devs = L.devices lc in
            let s = L.summary lc in
            if json then
              Format.printf "{ \"summary\": %s, \"devices\": [%s] }@."
                (L.summary_to_json s)
                (String.concat ", " (List.map L.device_to_json devs))
            else begin
              if devs <> [] then begin
                Format.printf "%-20s %-16s %-22s %6s  %s@." "id" "key"
                  "state" "rounds" "firmware";
                List.iter
                  (fun (d : L.device) ->
                     Format.printf "%-20s %-16s %-22s %6d  %s@." d.L.id
                       d.L.key_id
                       (L.state_to_string d.L.state)
                       d.L.rounds
                       (if d.L.firmware = "" then "-" else d.L.firmware))
                  devs
              end;
              Format.printf
                "%d device(s): %d registered, %d attested, %d quarantined; \
                 %d revoked key(s)@."
                s.L.devices s.L.registered s.L.attested s.L.quarantined
                s.L.revoked_keys
            end;
            Ok 0))
  in
  Cmd.v
    (Cmd.info "devices" ~exits
       ~doc:"Administer the device registry: list, register, quarantine, \
             release")
    Term.(term_result
            (const run $ registry_req_arg $ register_arg $ key_arg
             $ quarantine_arg $ release_arg $ json_arg))

let revoke_cmd =
  let keys_arg =
    let doc = "Key id(s) to revoke." in
    Arg.(value & pos_all string [] & info [] ~docv:"KEY" ~doc)
  in
  let run registry keys json =
    wrap (fun () ->
        if keys = [] then Error (`Msg "at least one KEY is required")
        else
          with_registry registry (fun lc ->
              let per_key =
                List.map (fun k -> (k, L.revoke_key lc k)) keys
              in
              let s = L.summary lc in
              if json then
                Format.printf
                  "{ \"revoked\": { %s }, \"summary\": %s }@."
                  (String.concat ", "
                     (List.map
                        (fun (k, n) -> Printf.sprintf "%S: %d" k n)
                        per_key))
                  (L.summary_to_json s)
              else begin
                List.iter
                  (fun (k, n) ->
                     Format.printf
                       "revoked %s: %d device(s) newly quarantined@." k n)
                  per_key;
                Format.printf
                  "%d revoked key(s) total, %d device(s) in quarantine@."
                  s.L.revoked_keys s.L.quarantined
              end;
              Ok 0))
  in
  Cmd.v
    (Cmd.info "revoke" ~exits
       ~doc:"Revoke provisioning keys: every device on a revoked key is \
             quarantined immediately, mid-session included")
    Term.(term_result (const run $ registry_req_arg $ keys_arg $ json_arg))

let rollout_cmd =
  let stable_arg =
    let doc = "Set the stable firmware version ($(b,\"\") clears the \
               policy)." in
    Arg.(value & opt (some string) None & info [ "stable" ] ~docv:"V" ~doc)
  in
  let canary_arg =
    let doc = "Begin a staged rollout of version $(docv) to --percent of \
               the fleet." in
    Arg.(value & opt (some string) None & info [ "canary" ] ~docv:"V" ~doc)
  in
  let percent_arg =
    let doc = "Fleet percentage assigned to the canary (deterministic \
               per-device hash)." in
    Arg.(value & opt int 10 & info [ "percent" ] ~docv:"P" ~doc)
  in
  let promote_arg =
    let doc = "Promote: the canary version becomes the new stable." in
    Arg.(value & flag & info [ "promote" ] ~doc)
  in
  let rollback_arg =
    let doc = "Abort the rollout: the canary version is no longer \
               allowed." in
    Arg.(value & flag & info [ "rollback" ] ~doc)
  in
  let run registry stable canary percent promote rollback json =
    wrap (fun () ->
        with_registry registry (fun lc ->
            let ( let* ) = Result.bind in
            let* () =
              match stable with
              | Some v -> L.set_stable lc v; Ok ()
              | None -> Ok ()
            in
            let* () =
              match canary with
              | Some version ->
                (match L.begin_canary lc ~version ~percent with
                 | Ok () -> Ok ()
                 | Error m -> Error (`Msg m))
              | None -> Ok ()
            in
            let* () =
              if promote then
                match L.promote lc with
                | Ok () -> Ok ()
                | Error m -> Error (`Msg m)
              else Ok ()
            in
            let* () =
              if rollback then
                match L.rollback lc with
                | Ok () -> Ok ()
                | Error m -> Error (`Msg m)
              else Ok ()
            in
            let r = L.rollout lc in
            let devs = L.devices lc in
            let assigned =
              List.length
                (List.filter (fun (d : L.device) -> L.assigned_canary lc d.L.id)
                   devs)
            in
            if json then
              Format.printf
                "{ \"stable\": %S, \"canary\": %s, \"percent\": %d, \
                 \"devices\": %d, \"devices_assigned\": %d }@."
                r.L.stable
                (match r.L.canary with
                 | Some (v, _) -> Printf.sprintf "%S" v
                 | None -> "null")
                (match r.L.canary with Some (_, p) -> p | None -> 0)
                (List.length devs) assigned
            else begin
              (match r.L.canary with
               | Some (v, p) ->
                 Format.printf
                   "stable %s, canary %s at %d%% (%d of %d device(s) \
                    assigned)@."
                   r.L.stable v p assigned (List.length devs)
               | None ->
                 if r.L.stable = "" then
                   Format.printf "no firmware policy (all versions allowed)@."
                 else Format.printf "stable %s, no canary@." r.L.stable)
            end;
            Ok 0))
  in
  Cmd.v
    (Cmd.info "rollout" ~exits
       ~doc:"Stage a firmware rollout: stable + canary percentage, \
             promote or roll back")
    Term.(term_result
            (const run $ registry_req_arg $ stable_arg $ canary_arg
             $ percent_arg $ promote_arg $ rollback_arg $ json_arg))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "dialed" ~version:"1.0.0" ~exits
      ~doc:"DIALED: data-flow attestation for low-end embedded devices"
  in
  let group =
    Cmd.group ~default info
      [ list_cmd; compile_cmd; instrument_cmd; disasm_cmd; run_cmd;
        attest_cmd; fleet_cmd; lint_cmd; serve_cmd; prover_cmd;
        devices_cmd; revoke_cmd; rollout_cmd ]
  in
  (* Normalized exit codes: commands yield 0 (ok) or 1 (rejection);
     cmdliner's parse/term errors — bad flags, unknown apps, IO — all
     land on 2. *)
  exit
    (match Cmd.eval_value group with
     | Ok (`Ok code) -> code
     | Ok (`Help | `Version) -> 0
     | Error (`Parse | `Term | `Exn) -> 2)
