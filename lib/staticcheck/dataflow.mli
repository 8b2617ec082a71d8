(** Binary-level taint / dataflow audit.

    The syntactic scan proves the instrumentation sequences are present;
    this pass proves they are {e sufficient}: a worklist abstract
    interpretation over the recovered CFG tracks, per basic block, which
    registers, frame slots, static addresses and memory summaries hold
    values the verifier cannot replay — values read from peripherals or
    (under the selective discipline) from the critical set without a
    covering I-Log append. Any such taint reaching the evidence (a log
    append operand) or an output action (a peripheral store) is reported
    as {!Report.Untracked_flow_to_or} with a bounded witness path; an
    uncovered critical/peripheral read is {!Report.Critical_not_covered};
    a read guard whose proven address range still overlaps the peripheral
    window, the critical set or the OR is
    {!Report.Overtainted_indirect}.

    Taint sets are bounded (a cap on witness sources and trail length is
    the widening), so the chaotic iteration terminates on any CFG; calls
    are handled context-insensitively by feeding every return site from
    every [ret] block. On a correctly instrumented binary every read is
    covered, no taint is ever created, and the fixpoint is immediate —
    the pass then costs one sweep over the blocks. *)

val run :
  config:Scan.config ->
  stream:Stream.t ->
  scan:Scan.t ->
  cfg:Basic_block.t ->
  entry:int ->
  abort:int option ->
  or_min:int ->
  or_max:int ->
  Report.finding list
(** Findings only (normalized); an empty list means every flow into the
    evidence and every output action is attested. [config.selective]
    supplies the critical address ranges and switches the coverage rule
    to the selective discipline. *)
