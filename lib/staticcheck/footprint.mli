(** Worst-case log footprint by abstract interpretation over the
    recovered CFG.

    Each basic block's growth is the number of recognized appends it
    contains; call blocks additionally absorb the callee's memoized
    summary. Per function, the worst case is the longest path over the
    SCC condensation of the intra-procedural graph. Cyclic components
    that append are multiplied by the loop policy bound, or reported
    [Unbounded] when no bound is given. Recursion, indirect calls and
    indirect branches are always [Unbounded]. *)

val worst_case :
  cfg:Basic_block.t ->
  appends:(int * [ `Cf | `Input ]) list ->
  ?loop_bound:int ->
  entry:int ->
  unit ->
  Report.growth
