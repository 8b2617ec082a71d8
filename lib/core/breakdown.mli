(** Attribution of instrumentation overhead to its sources.

    Walks an instrumented program and charges every synthetic instruction
    to the feature that emitted it — the quantitative backing for the
    paper's §V observation that "overhead is dominated by the
    instrumentation required for CFA". *)

type category =
  | Original        (** the application's own instructions *)
  | Entry_check     (** Tiny-CFA's r4 = OR_MAX check *)
  | Cf_logging      (** CF-Log appends + their guards + arm plumbing *)
  | Store_check     (** F5 write-bound checks *)
  | Input_logging   (** F3/F4 I-Log appends *)
  | Read_check      (** F4 stack-range checks *)
  | Abort           (** the abort loop *)

type row = {
  cat : category;
  instructions : int;
  bytes : int;
  est_cycles : int;  (** static cycle estimate (sum of per-instruction
                         costs; loops not unrolled) *)
}

val of_built : Pipeline.built -> row list

val pp : Format.formatter -> row list -> unit
