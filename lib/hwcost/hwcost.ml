type requirement =
  | Trustzone
  | Added of { luts : int; registers : int }

type arch = {
  arch_name : string;
  cfa : bool;
  dfa : bool;
  requirement : requirement;
}

let baseline_luts = 1904
let baseline_registers = 691

let catalog =
  [ { arch_name = "C-FLAT"; cfa = true; dfa = false; requirement = Trustzone };
    { arch_name = "OAT"; cfa = true; dfa = true; requirement = Trustzone };
    { arch_name = "Atrium"; cfa = true; dfa = false;
      requirement = Added { luts = 10640; registers = 15960 } };
    { arch_name = "LO-FAT"; cfa = true; dfa = false;
      requirement = Added { luts = 3192; registers = 4256 } };
    { arch_name = "LiteHAX"; cfa = true; dfa = true;
      requirement = Added { luts = 1596; registers = 2128 } };
    { arch_name = "Tiny-CFA"; cfa = true; dfa = false;
      requirement = Added { luts = 302; registers = 44 } };
    { arch_name = "DIALED"; cfa = true; dfa = true;
      requirement = Added { luts = 302; registers = 44 } } ]

let overhead_pct ~baseline extra = 100.0 *. float_of_int extra /. float_of_int baseline

let find name = List.find (fun a -> a.arch_name = name) catalog

let dialed_vs_litehax () =
  match (find "DIALED").requirement, (find "LiteHAX").requirement with
  | Added d, Added l ->
    (float_of_int l.luts /. float_of_int d.luts,
     float_of_int l.registers /. float_of_int d.registers)
  | _ -> assert false

(* ------------------------------------------------------------------ *)

type estimate = {
  est_comparators : int;
  est_state_bits : int;
  est_luts : int;
  est_registers : int;
}

let estimate_monitor (_ : Dialed_apex.Layout.t) =
  (* The monitor FSM (lib/apex/monitor.ml) watches two 16-bit buses:
     - PC against er_min, er_max, er_exit               (3 comparators)
     - data write address against er_min..er_max and
       or_min..or_max+1                                 (4 comparators)
     A 16-bit equality/magnitude comparator costs ~8 LUT4s (2 bits per
     LUT, plus the combining tree). Decision glue (phase transitions,
     irq/dma qualification, EXEC set/clear) is a few dozen LUTs. State:
     EXEC (1) + phase (1) + registered violation sticky bit (1) plus
     pipeline registers on the sampled signals. *)
  let comparators = 7 in
  let luts_per_comparator = 8 in
  let glue = 40 in
  let state_bits = 3 in
  let sampled_signal_bits = 16 (* registered address holding *) in
  { est_comparators = comparators;
    est_state_bits = state_bits;
    est_luts = (comparators * luts_per_comparator) + glue;
    est_registers = state_bits + sampled_signal_bits }

(* ------------------------------------------------------------------ *)
(* Selective-attestation savings (OAT-style reduced discipline).       *)

type log_cost = {
  lc_or_bytes : int;
  lc_cycles : int;
}

type selective_savings = {
  ss_app : string;
  ss_cfa : log_cost;
  ss_full : log_cost;
  ss_selective : log_cost;
}

(* The CF-Log is identical across disciplines (the CFA pass never sees
   the DFA pass's synthetic code), so the DFA data-log overhead of a
   variant is its OR usage minus the Tiny-CFA baseline's. *)
let data_log_bytes ~over:cfa v = max 0 (v.lc_or_bytes - cfa.lc_or_bytes)

let ratio num den =
  if den = 0 then if num = 0 then 1.0 else infinity
  else float_of_int num /. float_of_int den

(* DFA data-log shrink factor over OR bytes; [infinity] when the
   selective build logs no data at all *)
let data_log_reduction s =
  ratio
    (data_log_bytes ~over:s.ss_cfa s.ss_full)
    (data_log_bytes ~over:s.ss_cfa s.ss_selective)

let total_log_reduction s = ratio s.ss_full.lc_or_bytes s.ss_selective.lc_or_bytes

let report_bytes_saved s = s.ss_full.lc_or_bytes - s.ss_selective.lc_or_bytes

let cycle_overhead_reduction s =
  ratio
    (max 0 (s.ss_full.lc_cycles - s.ss_cfa.lc_cycles))
    (max 0 (s.ss_selective.lc_cycles - s.ss_cfa.lc_cycles))

let cycles_saved s = s.ss_full.lc_cycles - s.ss_selective.lc_cycles

let pp_selective ppf s =
  Format.fprintf ppf
    "%s: data log %dB -> %dB (%.1fx), report %dB -> %dB (%.2fx, %dB saved), \
     DFA cycles %d -> %d (%.2fx, %d saved)"
    s.ss_app
    (data_log_bytes ~over:s.ss_cfa s.ss_full)
    (data_log_bytes ~over:s.ss_cfa s.ss_selective)
    (data_log_reduction s)
    s.ss_full.lc_or_bytes s.ss_selective.lc_or_bytes
    (total_log_reduction s) (report_bytes_saved s)
    (max 0 (s.ss_full.lc_cycles - s.ss_cfa.lc_cycles))
    (max 0 (s.ss_selective.lc_cycles - s.ss_cfa.lc_cycles))
    (cycle_overhead_reduction s) (cycles_saved s)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.4f" f
  else "null"

let selective_to_json s =
  Printf.sprintf
    "{\"app\":%S,\"or_bytes\":{\"cfa\":%d,\"full\":%d,\"selective\":%d},\
     \"cycles\":{\"cfa\":%d,\"full\":%d,\"selective\":%d},\
     \"data_log_reduction\":%s,\"total_log_reduction\":%s,\
     \"report_bytes_saved\":%d,\"cycle_overhead_reduction\":%s}"
    s.ss_app
    s.ss_cfa.lc_or_bytes s.ss_full.lc_or_bytes s.ss_selective.lc_or_bytes
    s.ss_cfa.lc_cycles s.ss_full.lc_cycles s.ss_selective.lc_cycles
    (json_float (data_log_reduction s))
    (json_float (total_log_reduction s))
    (report_bytes_saved s)
    (json_float (cycle_overhead_reduction s))

(* ------------------------------------------------------------------ *)

let yes_no b = if b then "yes" else "-"

let table1_rows () =
  let baseline_row =
    ("MSP430 (baseline)", "-", "-",
     string_of_int baseline_luts, string_of_int baseline_registers)
  in
  let arch_row a =
    let luts, regs =
      match a.requirement with
      | Trustzone -> ("ARM-TrustZone", "ARM-TrustZone")
      | Added { luts; registers } ->
        (Printf.sprintf "%d (+%.0f%%)" luts (overhead_pct ~baseline:baseline_luts luts),
         Printf.sprintf "%d (+%.0f%%)" registers
           (overhead_pct ~baseline:baseline_registers registers))
    in
    (a.arch_name, yes_no a.cfa, yes_no a.dfa, luts, regs)
  in
  baseline_row :: List.map arch_row catalog

let pp_table1 ppf () =
  Format.fprintf ppf "%-18s %-5s %-5s %-16s %-16s@."
    "Technique" "CFA" "DFA" "LUTs" "Registers";
  Format.fprintf ppf "%s@." (String.make 62 '-');
  List.iter
    (fun (name, cfa, dfa, luts, regs) ->
       Format.fprintf ppf "%-18s %-5s %-5s %-16s %-16s@." name cfa dfa luts regs)
    (table1_rows ());
  let lut_factor, reg_factor = dialed_vs_litehax () in
  Format.fprintf ppf
    "DIALED vs LiteHAX (cheapest prior CFA+DFA): %.1fx fewer LUTs, %.1fx fewer registers@."
    lut_factor reg_factor
