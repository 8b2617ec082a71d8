(** Linear completeness scan.

    A first pass walks the instruction stream front to back, consuming
    recognized instrumentation sequences (entry check, F3 snapshot, log
    appends, F5 store checks, F4 read regions) and marking every
    instruction with what claimed it. A second pass applies the
    completeness rules to whatever is left as application code: every
    control transfer must be fed by a CF append, every dynamic access
    must sit inside a recognized check, every static input must be
    logged. *)

type config = {
  loop_bound : int option;  (** iteration bound for footprint loops *)
  require_bounded : bool;   (** report an unbounded footprint as a finding *)
  selective : (int * int) list option;
      (** [Some ranges]: the binary uses the OAT-style selective
          discipline and [ranges] are the critical address ranges
          (inclusive). The scan then accepts read guards in place of F4
          logs and cedes static-read coverage to the {!Dataflow} pass.
          [None]: full discipline — every input must be logged, and a
          guard does not count as a check. *)
  dataflow : bool;
      (** run the taint/dataflow audit after the syntactic passes
          (consulted by {!Audit}, not by the scan itself) *)
}

val default_config : config
(** No loop bound, unbounded footprint tolerated, full discipline,
    dataflow on. *)

type mark =
  | App
  | Cf_site
  | Checked_store
  | Checked_read
  | Guarded_read
  | Seq
  | AbortLoop

type t = {
  marks : mark array;
  appends : (int * [ `Cf | `Input ]) list;
      (** start address and kind of every recognized append, in program
          order *)
  guards : (int * (int * int)) list;
      (** guarded-read address -> proven EA range [\[lo, hi)], in program
          order *)
  cf_sites : int;
  input_sites : int;
  store_checks : int;
  read_checks : int;
  read_guards : int;
  findings : Report.finding list;
}

val run :
  config:config ->
  stream:Stream.t ->
  abort:int option ->
  or_min:int ->
  or_max:int ->
  t
