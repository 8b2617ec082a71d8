(** MiniC abstract syntax.

    A small C subset sufficient for the paper's three embedded
    applications: 16-bit signed [int]s, global scalars and arrays,
    memory-mapped I/O registers ([volatile int NAME @ 0xADDR;], word- or
    byte-wide via [int]/[char]), functions with up to 8 parameters,
    [if]/[while]/[for], and the usual expression operators. *)

type io_width = Wbyte | Wword

type unop = Neg | Lognot | Bitnot

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor

type expr =
  | Int of int
  | Var of string
  | Index of string * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list

type stmt =
  | Sexpr of expr
  | Assign of string * expr
  | Store of string * expr * expr   (** arr[e1] = e2 *)
  | If of expr * block * block
  | While of expr * block
  | Return of expr option
  | Local of string * expr option
  | Break
  | Continue

and block = stmt list

type func = {
  fname : string;
  params : string list;
  returns_value : bool;
  body : block;
}

type global =
  | Gvar of string * int * bool
      (** name, initializer, critical: a [critical] global must stay
          covered by F4 logging even under selective attestation *)
  | Garray of string * int * int list * bool
      (** name, size, initializers, critical *)
  | Gio of string * io_width * int     (** name, width, address *)
  | Gfunc of func

type program = global list

val unop_name : unop -> string
val binop_name : binop -> string

val pp_expr : Format.formatter -> expr -> unit
