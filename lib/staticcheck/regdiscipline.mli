(** Register-discipline pass: r4 is the reserved log write pointer and
    may only be touched by recognized instrumentation sequences. The
    per-basic-block def/use extraction runs over the recovered CFG so
    every reachable-by-sweep instruction is inspected exactly once. *)

type event = { ev_addr : int; ev_write : bool }

val check :
  cfg:Basic_block.t ->
  allowed:(int -> bool) ->
  Report.finding list
(** One [Reserved_register_clobber] per r4 touch at an address the scan
    did not claim as instrumentation. *)
