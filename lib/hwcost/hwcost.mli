(** Hardware cost model reproducing Table I.

    Table I in the paper compares runtime-attestation architectures by
    functionality (CFA / DFA support) and synthesized hardware cost (LUTs
    and registers) against a baseline openMSP430 core. The per-architecture
    numbers are the published synthesis results the paper itself cites;
    this module carries that catalog, recomputes the overhead percentages,
    and adds a structural estimator that sizes {e our} monitor FSM in the
    same units, confirming the DIALED row's order of magnitude. *)

type requirement =
  | Trustzone                              (** needs an ARM TrustZone CPU *)
  | Added of { luts : int; registers : int }  (** extra logic over baseline *)

type arch = {
  arch_name : string;
  cfa : bool;
  dfa : bool;
  requirement : requirement;
}

val baseline_luts : int
(** 1904 — the openMSP430 core. *)

val baseline_registers : int
(** 691. *)

val overhead_pct : baseline:int -> int -> float
(** [overhead_pct ~baseline extra] = 100 * extra / baseline. *)

val dialed_vs_litehax : unit -> float * float
(** The headline claim: DIALED's (LUT, register) advantage factors over
    LiteHAX, the cheapest prior architecture with both CFA and DFA
    (paper: ~5x and ~50x). *)

(** {1 Structural estimate of our monitor} *)

type estimate = {
  est_comparators : int;   (** 16-bit comparators against layout bounds *)
  est_state_bits : int;    (** FSM + EXEC register bits *)
  est_luts : int;
  est_registers : int;
}

val estimate_monitor : Dialed_apex.Layout.t -> estimate
(** Size the APEX monitor FSM from its structure: one 16-bit comparator
    per watched bound on the PC and data-address buses (~8 LUTs each on a
    4-input-LUT fabric), plus decision glue, plus registered state. *)

(** {1 Selective-attestation savings}

    The OAT-style reduced discipline trades log entries for read guards.
    These helpers turn three measured runs of the same operation —
    Tiny-CFA only, full DIALED, selective DIALED — into the headline
    savings numbers. The CF-Log is bit-identical across the three (the
    CFA pass never instruments the DFA pass's synthetic code), so
    [or_bytes(variant) - or_bytes(cfa)] isolates the DFA data-log
    overhead each discipline pays. *)

type log_cost = {
  lc_or_bytes : int;   (** OR bytes the run consumed (or_max - final r4) *)
  lc_cycles : int;     (** device cycles for the run *)
}

type selective_savings = {
  ss_app : string;
  ss_cfa : log_cost;        (** Tiny-CFA baseline: CF-Log only *)
  ss_full : log_cost;       (** full DIALED discipline *)
  ss_selective : log_cost;  (** OAT-style reduced discipline *)
}

val pp_selective : Format.formatter -> selective_savings -> unit

val selective_to_json : selective_savings -> string
(** One JSON object per app, for the bench artifacts. *)

val table1_rows : unit -> (string * string * string * string * string) list
(** Formatted rows: (technique, CFA, DFA, LUTs, registers), starting with
    the MSP430 baseline — Table I verbatim. *)

val pp_table1 : Format.formatter -> unit -> unit
