(** MiniC semantic checks: name resolution, arity, l-value and loop-control
    rules. Produces the symbol environment the code generator consumes. *)

exception Error of string

type kind =
  | Kglobal                       (** global scalar *)
  | Karray of int                 (** global array, element count *)
  | Kio of Ast.io_width * int     (** memory-mapped register *)

type env = {
  globals : (string * kind) list;
  funcs : (string * (int * bool)) list;  (** name -> (arity, returns value) *)
  criticals : (string * int) list;
      (** globals declared [critical], with their object size in bytes —
          the set a selective-attestation build must keep F4-covered *)
}

val check : Ast.program -> env
(** Raises {!Error} with a readable message on any violation. *)

val lookup_global : env -> string -> kind option
