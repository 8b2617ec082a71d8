let magic = "DX"
let version = 1
let tag_len = 32

let le16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let encode (r : Pox.report) =
  let buf = Buffer.create (64 + String.length r.Pox.or_data) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (if r.Pox.exec then '\001' else '\000');
  le16 buf (String.length r.Pox.challenge);
  Buffer.add_string buf r.Pox.challenge;
  le16 buf r.Pox.er_min;
  le16 buf r.Pox.er_max;
  le16 buf r.Pox.er_exit;
  le16 buf r.Pox.or_min;
  le16 buf r.Pox.or_max;
  le16 buf (String.length r.Pox.or_data);
  Buffer.add_string buf r.Pox.or_data;
  Buffer.add_string buf r.Pox.token;
  Buffer.contents buf

type error =
  | Bad_magic
  | Unsupported_version of int
  | Short_buffer of { what : string; offset : int }
  | Bad_field of { what : string; value : int }
  | Trailing_garbage of { extra : int }

let pp_error ppf = function
  | Bad_magic -> Format.pp_print_string ppf "bad magic"
  | Unsupported_version v -> Format.fprintf ppf "unsupported version %d" v
  | Short_buffer { what; offset } ->
    Format.fprintf ppf "truncated %s at offset %d" what offset
  | Bad_field { what; value } -> Format.fprintf ppf "bad %s byte %d" what value
  | Trailing_garbage { extra } ->
    Format.fprintf ppf "%d trailing byte%s" extra (if extra = 1 then "" else "s")

let error_to_string e = Format.asprintf "%a" pp_error e

type cursor = { data : string; mutable pos : int }

exception Bad of error

let need c n what =
  if c.pos + n > String.length c.data then
    raise (Bad (Short_buffer { what; offset = c.pos }))

let byte c what =
  need c 1 what;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let word c what =
  let lo = byte c what in
  let hi = byte c what in
  lo lor (hi lsl 8)

let bytes c n what =
  need c n what;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let parse data =
  let c = { data; pos = 0 } in
  let m = bytes c 2 "magic" in
  if m <> magic then raise (Bad Bad_magic);
  let v = byte c "version" in
  if v <> version then raise (Bad (Unsupported_version v));
  let exec =
    match byte c "exec flag" with
    | 0 -> false
    | 1 -> true
    | b -> raise (Bad (Bad_field { what = "exec flag"; value = b }))
  in
  let challenge_len = word c "challenge length" in
  let challenge = bytes c challenge_len "challenge" in
  let er_min = word c "er_min" in
  let er_max = word c "er_max" in
  let er_exit = word c "er_exit" in
  let or_min = word c "or_min" in
  let or_max = word c "or_max" in
  let or_len = word c "or length" in
  let or_data = bytes c or_len "or data" in
  let token = bytes c tag_len "token" in
  if c.pos <> String.length data then
    raise (Bad (Trailing_garbage { extra = String.length data - c.pos }));
  { Pox.challenge; er_min; er_max; er_exit; or_min; or_max; exec;
    or_data; token }

let decode data = try Ok (parse data) with Bad e -> Error e

let decode_digested data =
  Result.map (fun r -> (r, Pox.log_digest r)) (decode data)
