(** Peephole optimizer over symbolic programs.

    Conservative, semantics-preserving rewrites targeting the push/pop
    traffic of MiniC's stack-based expression evaluation:

    - [push rX; pop rY]           -> [mov rX, rY] (dropped when X = Y)
    - [push rX; m; pop rY]        -> [mov rX, rY; m]
      when [m] is a single non-control instruction that does not touch
      the stack pointer and does not mention [rY]

    Neither rewrite alters flag state visible to later instructions
    ([mov] sets no flags), so the instrumentation passes' flag-discipline
    contract is preserved. Annotations travel with their instruction.

    Runs before instrumentation; iterated to a fixpoint. *)

val optimize : Program.t -> Program.t
