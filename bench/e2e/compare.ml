(* [compare A.json B.json]: judge results file B (the change) against A
   (the parent), per workload and end-to-end metric, with the bounds in
   BENCHMARK.json:

   - regressed: B's median is worse than A's by more than the bound;
   - unresolved: otherwise, but either side's quartile spread exceeds
     the bound and not every B run reads better than every A run
     (setup_s is judged by its median alone);
   - better: B wins at least 9 in 10 of the runs paired by seed (ties
     count for neither) and the medians differ by more than A's own
     quartile spread;
   - unchanged: none of the above.

   failed_share has an absolute bound of 0: any run of B that failed
   more than every run of A regresses. *)

type metric = { m_name : string; m_lower : bool; m_bound : float }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let load path = Json.parse (read_file path)

let metrics_of_benchmark j =
  List.map
    (fun m ->
       { m_name = Json.to_str (Json.member "name" m);
         m_lower = Json.to_str (Json.member "better" m) = "lower";
         m_bound = Json.to_num (Json.member "bound" m) })
    (Json.to_list (Json.member "end_to_end" j))

(* (seed, value) of every run of [workload] that reports [metric] *)
let samples results ~workload ~metric =
  List.filter_map
    (fun r ->
       if Json.to_str (Json.member "workload" r) <> workload then None
       else
         match Json.member metric (Json.member "metrics" r) with
         | Json.Obj _ as v ->
           Some (Json.to_int (Json.member "seed" r), Json.to_num (Json.member "value" v))
         | _ -> None)
    (Json.to_list (Json.member "runs" results))

let workloads results =
  List.sort_uniq compare
    (List.map (fun r -> Json.to_str (Json.member "workload" r))
       (Json.to_list (Json.member "runs" results)))

let verdict m a b =
  let va = List.map snd a and vb = List.map snd b in
  let qa1, ma, qa3 = Stat.quartiles va and _, mb, _ = Stat.quartiles vb in
  (* [better y x]: B's reading y beats A's reading x *)
  let better y x = if m.m_lower then y < x else y > x in
  let change = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
  let worsening = if m.m_lower then change else -.change in
  let pairs =
    List.filter_map
      (fun (s, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt s b)) a
  in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let all_better = List.for_all (fun x -> List.for_all (fun y -> better y x) vb) va in
  (* set-up time is a few milliseconds of process start, dominated by the
     host; like the harness, judge it by its median alone *)
  let spread_checked = m.m_name <> "setup_s" in
  let label =
    if worsening > m.m_bound then "regressed"
    else if spread_checked
         && Float.max (Stat.spread va) (Stat.spread vb) > m.m_bound
         && not all_better
    then "unresolved"
    else if pairs <> [] && 10 * wins >= 9 * List.length pairs
            && Float.abs (mb -. ma) > qa3 -. qa1
    then "better"
    else "unchanged"
  in
  (label, ma, mb, change)

let failed_verdict a b =
  let max_of l = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 l in
  let ma = max_of a and mb = max_of b in
  ((if mb > ma then "regressed" else if mb < ma then "better" else "unchanged"), ma, mb)

let run ~benchmark path_a path_b =
  let metrics = metrics_of_benchmark (load benchmark) in
  let a = load path_a and b = load path_b in
  let bad = ref 0 in
  Printf.printf "%-12s %-26s %14s %14s %9s %6s  %s\n" "workload" "metric"
    "A median" "B median" "change" "bound" "verdict";
  List.iter
    (fun wl ->
       if List.mem wl (workloads b) then begin
         List.iter
           (fun m ->
              let sa = samples a ~workload:wl ~metric:m.m_name
              and sb = samples b ~workload:wl ~metric:m.m_name in
              if sa <> [] && sb <> [] then begin
                let label, ma, mb, change = verdict m sa sb in
                if label = "regressed" || label = "unresolved" then incr bad;
                Printf.printf "%-12s %-26s %14.4f %14.4f %+8.2f%% %5.1f%%  %s (%d vs %d runs)\n"
                  wl m.m_name ma mb (100.0 *. change) (100.0 *. m.m_bound) label
                  (List.length sa) (List.length sb)
              end)
           metrics;
         let fa = samples a ~workload:wl ~metric:"failed_share"
         and fb = samples b ~workload:wl ~metric:"failed_share" in
         if fa <> [] && fb <> [] then begin
           let label, ma, mb = failed_verdict fa fb in
           if label = "regressed" then incr bad;
           Printf.printf "%-12s %-26s %14.6f %14.6f %9s %6s  %s (worst run)\n" wl
             "failed_share" ma mb "" "0" label
         end
       end)
    (workloads a);
  if !bad > 0 then 1 else 0
