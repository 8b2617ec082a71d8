(* Fleet monitoring: a verifier attesting a building's fire sensors.

   Each device runs the same attested sensing operation over its own ADC
   readings. The verifier replays every report, extracts the authenticated
   temperature inputs from I-Log, applies a site policy ("the alarm pin
   must be driven iff the averaged reading crosses the threshold") and
   aggregates a trusted picture of the site — including one compromised
   node whose report it refuses.

   Run with: dune exec examples/fire_sensor_fleet.exe
*)

module M = Dialed_msp430
module A = Dialed_apex
module C = Dialed_core
module F = Dialed_fleet
module Apps = Dialed_apps.Apps

let p3out_addr = M.Peripherals.p3out

(* policy: the replayed execution must drive the alarm consistently with
   the inputs it logged *)
let alarm_policy threshold =
  { C.Verifier.policy_name = "alarm-consistent-with-inputs";
    check =
      (fun trace ->
         (* F3 logs sp then r8..r15: entry 8 of the inputs is r15, the
            operation's first argument — the sample count *)
         let n_samples =
           match List.nth_opt trace.C.Verifier.inputs 8 with
           | Some n -> n
           | None -> 0
         in
         (* the ADC samples are the first n runtime inputs after F3 *)
         let adc =
           List.filteri (fun i _ -> i >= 9 && i < 9 + n_samples)
             trace.C.Verifier.inputs
         in
         match adc with
         | [] -> Error "no ADC inputs logged"
         | _ ->
           let avg = List.fold_left ( + ) 0 adc / List.length adc in
           let celsius = (avg - 300) / 10 in
           let alarm =
             M.Memory.peek8 trace.C.Verifier.replay_memory p3out_addr = 4
           in
           if alarm = (celsius > threshold) then Ok ()
           else
             Error
               (Printf.sprintf
                  "alarm pin %b inconsistent with %d C (threshold %d)" alarm
                  celsius threshold)) }

let () =
  let app = Apps.fire_sensor in
  let built = Apps.build app in
  let verifier = C.Verifier.create ~policies:[ alarm_policy 55 ] built in

  let rooms =
    [ ("lobby", [ 520; 530; 525; 520 ], `Honest);
      ("server-room", [ 910; 930; 920; 915 ], `Honest);
      ("workshop", [ 600; 610; 605; 600 ], `Honest);
      ("storage", [ 500; 505; 500; 505 ], `Tampered) ]
  in
  Format.printf "%-14s %-10s %-9s %-30s@." "room" "temp (C)" "alarm"
    "verifier verdict";
  Format.printf "%s@." (String.make 66 '-');
  List.iter
    (fun (room, samples, honesty) ->
       let device = C.Pipeline.device built in
       M.Peripherals.feed_adc (A.Device.board device) samples;
       let session = C.Protocol.make_session verifier in
       let request = C.Protocol.next_request session ~args:[ 4 ] in
       let report, _ = C.Protocol.prover_execute device request in
       let report =
         match honesty with
         | `Honest -> report
         | `Tampered ->
           (* compromised node forges a reading: the log lives at the top
              of OR (the end of or_data), so flip a byte there *)
           let or_data = Bytes.of_string report.A.Pox.or_data in
           let i = Bytes.length or_data - 24 in
           Bytes.set or_data i
             (Char.chr (Char.code (Bytes.get or_data i) lxor 0xFF));
           { report with A.Pox.or_data = Bytes.to_string or_data }
       in
       let outcome = C.Protocol.check_response session request report in
       let temp =
         match M.Peripherals.uart_sent (A.Device.board device) with
         | [ v ] -> string_of_int (M.Word.signed8 v)
         | _ -> "?"
       in
       let alarm =
         if M.Peripherals.last_gpio (A.Device.board device) ~port:`P3 = 4 then
           "ALARM"
         else "-"
       in
       let verdict =
         if outcome.C.Verifier.accepted then "trusted"
         else
           Format.asprintf "REJECTED (%a)"
             (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
                C.Verifier.pp_finding)
             outcome.C.Verifier.findings
       in
       let verdict =
         if String.length verdict > 60 then String.sub verdict 0 57 ^ "..."
         else verdict
       in
       Format.printf "%-14s %-10s %-9s %-30s@." room temp alarm verdict)
    rooms;
  Format.printf
    "@.The storage node's forged log fails the HMAC token check; honest \
     nodes are accepted with their alarm behaviour proven consistent with \
     the authenticated sensor inputs.@.";

  (* -------------------------------------------------------------- *)
  (* Scale-out: the whole campus at once. One shared verification    *)
  (* plan (per-firmware invariants built once, cached by firmware    *)
  (* fingerprint), replays spread across worker domains.             *)

  let campus_size = 48 in
  Format.printf
    "@.Campus-scale batch: %d sensors, one shared verification plan@."
    campus_size;
  let cache = F.Plan.cache () in
  let plan =
    F.Plan.find_or_build cache ~policies:[ alarm_policy 55 ] built
  in
  let batch =
    List.init campus_size (fun i ->
        let device = C.Pipeline.device built in
        let base = 500 + 13 * (i mod 31) in
        M.Peripherals.feed_adc (A.Device.board device)
          [ base; base + 3; base + 1; base + 2 ];
        ignore (A.Device.run_operation ~args:[ 4 ] device);
        let report =
          A.Device.attest device ~challenge:(Printf.sprintf "campus-%03d" i)
        in
        let report =
          if i <> 17 then report
          else begin
            (* one compromised node again, buried in the batch *)
            let or_data = Bytes.of_string report.A.Pox.or_data in
            let j = Bytes.length or_data - 24 in
            Bytes.set or_data j
              (Char.chr (Char.code (Bytes.get or_data j) lxor 0xFF));
            { report with A.Pox.or_data = Bytes.to_string or_data }
          end
        in
        (Printf.sprintf "room-%03d" i, report))
  in
  let domains = Domain.recommended_domain_count () in
  let summary = F.Fleet.verify_batch ~domains plan batch in
  Format.printf "%a@." F.Fleet.pp_summary summary;
  let { F.Plan.cc_hits = hits; cc_misses = misses; _ } =
    F.Plan.cache_counters cache
  in
  (* a second batch over the same firmware reuses the cached plan *)
  ignore (F.Plan.find_or_build cache ~policies:[ alarm_policy 55 ] built);
  let hits' = (F.Plan.cache_counters cache).F.Plan.cc_hits in
  Format.printf
    "plan cache: %d hit(s), %d miss(es) after the first batch; a second \
     batch over the same firmware hits (%d total).@."
    hits misses hits'
