(** Binary-level static audit of an instrumented ER.

    Runs the whole pipeline over nothing but the bytes in memory: linear
    sweep, abort-loop discovery, the completeness scan, the r4
    register-discipline pass over the recovered CFG, the worst-case
    log footprint analysis, and the semantic {!Dataflow} taint pass.
    Produces one structured, normalized {!Report.t}.

    The auditor proves the instrumentation is {e present and intact};
    the replay engine then proves the logged values are {e consistent}
    with an execution. Together they discharge the DIALED assumption
    that the attested binary actually carries the DFA/CFA
    instrumentation it claims. *)

type config = Scan.config = {
  loop_bound : int option;
  require_bounded : bool;
  selective : (int * int) list option;
      (** [Some ranges]: audit against the OAT-style selective discipline
          with these critical address ranges (inclusive); read guards are
          accepted and the {!Dataflow} pass owns static-read coverage *)
  dataflow : bool;
      (** run the semantic taint pass (default true) *)
}

val default_config : config

type timings = {
  scan_us : float;
  regdiscipline_us : float;
  footprint_us : float;
  dataflow_us : float;
}

val capacity_entries : or_min:int -> or_max:int -> int
(** Log entries the OR can hold. *)

val audit :
  ?config:config ->
  mem:Dialed_msp430.Memory.t ->
  er_min:int ->
  er_max:int ->
  or_min:int ->
  or_max:int ->
  unit ->
  Report.t

val audit_timed :
  ?config:config ->
  mem:Dialed_msp430.Memory.t ->
  er_min:int ->
  er_max:int ->
  or_min:int ->
  or_max:int ->
  unit ->
  Report.t * timings
(** Same audit, plus wall-clock microseconds per pass — the lint bench's
    per-pass breakdown. *)
