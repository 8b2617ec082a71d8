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
  | Store of string * expr * expr
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
  | Garray of string * int * int list * bool
  | Gio of string * io_width * int
  | Gfunc of func

type program = global list

let unop_name u = match u with Neg -> "-" | Lognot -> "!" | Bitnot -> "~"

let binop_name b =
  match b with
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Land -> "&&" | Lor -> "||"

let rec pp_expr ppf e =
  match e with
  | Int n -> Format.pp_print_int ppf n
  | Var v -> Format.pp_print_string ppf v
  | Index (a, e) -> Format.fprintf ppf "%s[%a]" a pp_expr e
  | Unop (u, e) -> Format.fprintf ppf "%s(%a)" (unop_name u) pp_expr e
  | Binop (b, l, r) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr l (binop_name b) pp_expr r
  | Call (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_expr)
      args
