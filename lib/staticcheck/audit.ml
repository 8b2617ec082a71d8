module M = Dialed_msp430
module R = Report

type config = Scan.config = {
  loop_bound : int option;
  require_bounded : bool;
  selective : (int * int) list option;
  dataflow : bool;
}

let default_config = Scan.default_config

type timings = {
  scan_us : float;
  regdiscipline_us : float;
  footprint_us : float;
  dataflow_us : float;
}

(* OR holds 2-byte log entries over [or_min, or_max + 1]. *)
let capacity_entries ~or_min ~or_max = ((or_max - or_min) / 2) + 1

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e6)

let audit_timed ?(config = default_config) ~mem ~er_min ~er_max ~or_min
    ~or_max () =
  let stream = Stream.of_memory mem ~lo:er_min ~hi:er_max in
  let undecodable =
    match stream.Stream.stopped with
    | Some (at, word) -> [ R.Undecodable { at; word } ]
    | None -> []
  in
  let abort = Stream.discover_abort stream in
  let abort_findings =
    if abort = None then
      [ R.No_abort_loop
          { reason = "no check guard branches to a self-loop" } ]
    else []
  in
  let scan, scan_us =
    timed (fun () -> Scan.run ~config ~stream ~abort ~or_min ~or_max)
  in
  let cfg = Basic_block.build stream ~entry:er_min in
  let allowed =
    let tbl = Hashtbl.create 256 in
    Array.iteri
      (fun i mk ->
         match mk with
         | Scan.Seq | Scan.AbortLoop ->
           Hashtbl.replace tbl (Stream.get stream i).Stream.addr ()
         | Scan.App | Scan.Cf_site | Scan.Checked_store | Scan.Checked_read
         | Scan.Guarded_read ->
           ())
      scan.Scan.marks;
    fun addr -> Hashtbl.mem tbl addr
  in
  let reg_findings, regdiscipline_us =
    timed (fun () -> Regdiscipline.check ~cfg ~allowed)
  in
  let footprint, footprint_us =
    timed (fun () ->
        Footprint.worst_case ~cfg ~appends:scan.Scan.appends
          ?loop_bound:config.loop_bound ~entry:er_min ())
  in
  (* the semantic pass only makes sense on a decodable ER *)
  let df_findings, dataflow_us =
    if config.dataflow && undecodable = [] then
      timed (fun () ->
          Dataflow.run ~config ~stream ~scan ~cfg ~entry:er_min ~abort
            ~or_min ~or_max)
    else ([], 0.)
  in
  let capacity = capacity_entries ~or_min ~or_max in
  let fp_findings =
    match footprint with
    | R.Bounded w when w > capacity ->
      [ R.Log_overflow { worst = w; capacity } ]
    | R.Unbounded reason when config.require_bounded ->
      [ R.Unbounded_footprint { reason } ]
    | R.Bounded _ | R.Unbounded _ -> []
  in
  let stats =
    { R.er_bytes = er_max - er_min + 1;
      instructions = Stream.length stream;
      cf_sites = scan.Scan.cf_sites;
      input_sites = scan.Scan.input_sites;
      store_checks = scan.Scan.store_checks;
      read_checks = scan.Scan.read_checks;
      capacity_entries = capacity;
      footprint }
  in
  ({ R.findings =
       R.normalize
         (undecodable @ abort_findings @ scan.Scan.findings @ reg_findings
          @ fp_findings @ df_findings);
     stats },
   { scan_us; regdiscipline_us; footprint_us; dataflow_us })

let audit ?config ~mem ~er_min ~er_max ~or_min ~or_max () =
  fst (audit_timed ?config ~mem ~er_min ~er_max ~or_min ~or_max ())
