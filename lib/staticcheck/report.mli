(** Structured result of a static instrumentation audit.

    A {e finding} is a reason the audited binary cannot be trusted as a
    correctly DIALED-instrumented operation; an empty finding list means
    the auditor proved (by exhaustive pattern coverage of the ER) that
    features F1–F5 are in place, [r4] is only touched by recognized
    instrumentation, and the worst-case log footprint was computed. *)

type growth =
  | Bounded of int      (** log entries on the worst acyclic path *)
  | Unbounded of string (** why no static bound exists *)

type finding =
  | Undecodable of { at : int; word : int }
  | No_abort_loop of { reason : string }
  | Entry_check_missing of { at : int }
  | Base_sp_save_missing of { at : int; reason : string }
  | Malformed_append of { at : int; reason : string }
  | Unlogged_control_flow of { at : int; reason : string }
  | Wrong_logged_operand of { at : int }
  | Unchecked_store of { at : int }
  | Unchecked_read of { at : int }
  | Unlogged_input of { at : int }
  | Reserved_register_clobber of { at : int; write : bool }
  | Static_store_into_or of { at : int; ea : int }
  | Reti_in_er of { at : int }
  | Log_overflow of { worst : int; capacity : int }
  | Unbounded_footprint of { reason : string }
  | Untracked_flow_to_or of { at : int; source : int; trace : int list }
      (** dataflow: the value read (unattested) at [source] reaches the
          attested output at [at]; [trace] is a bounded witness path of
          intermediate instruction addresses *)
  | Critical_not_covered of { at : int; ea : int }
      (** dataflow: a read of the critical/peripheral address [ea] has no
          covering I-Log append *)
  | Overtainted_indirect of { at : int; reason : string }
      (** dataflow: a guarded indirect access whose proven address range
          still overlaps MMIO, the critical set or the OR *)

val finding_kind : finding -> string
(** Stable short tag ("unlogged-cf", "r4-clobber", ...) — the error class
    the adversarial mutation tests assert on. *)

val normalize : finding list -> finding list
(** Canonical presentation order — sorted by (anchor address, kind), with
    structurally identical findings deduplicated. Every audit report is
    normalized before printing or serialization. *)

type stats = {
  er_bytes : int;
  instructions : int;          (** decoded by the linear sweep *)
  cf_sites : int;              (** recognized CF-Log append sites *)
  input_sites : int;           (** recognized I-Log append sites (incl. F3) *)
  store_checks : int;          (** recognized F5 bound checks *)
  read_checks : int;           (** recognized F4 range-check regions *)
  capacity_entries : int;      (** OR capacity in log entries *)
  footprint : growth;          (** worst-case CF-Log + I-Log growth *)
}

type t = {
  findings : finding list;
  stats : stats;
}

val ok : t -> bool
(** No findings. *)

val summary : t -> string
(** One-line digest, e.g. ["3 finding(s): unchecked-store, unlogged-cf x2"]. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string

val to_sarif : ?uri:string -> t -> string
(** SARIF 2.1.0 log with one rule per finding kind present and one result
    per finding; addresses surface as
    [physicalLocation.address.absoluteAddress] against the (binary)
    artifact [uri]. *)

val to_sarif_multi : (string * t) list -> string
(** One SARIF log with one run per [(artifact uri, report)] pair — the
    shape [dialed lint --all --sarif] emits. *)
