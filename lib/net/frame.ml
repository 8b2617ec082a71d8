type error = Oversize of { declared : int; cap : int }

let pp_error ppf = function
  | Oversize { declared; cap } ->
    Format.fprintf ppf "oversize frame: declared %d bytes, cap %d" declared cap

let error_to_string e = Format.asprintf "%a" pp_error e

let default_cap = 1 lsl 20
let header_bytes = 4

let encode ?(cap = default_cap) payload =
  let n = String.length payload in
  if n > cap then
    invalid_arg
      (Printf.sprintf "Frame.encode: payload %d bytes exceeds cap %d" n cap);
  let b = Bytes.create (header_bytes + n) in
  Bytes.set b 0 (Char.chr (n land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 3 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

type decoder = {
  d_cap : int;
  buf : Buffer.t;           (* bytes not yet consumed by a complete frame *)
  mutable consumed : int;   (* prefix of [buf] already handed out *)
  mutable poisoned : error option;
}

let decoder ?(cap = default_cap) () =
  { d_cap = cap; buf = Buffer.create 256; consumed = 0; poisoned = None }

let cap d = d.d_cap
let residue d = Buffer.length d.buf - d.consumed

(* Drop the consumed prefix once it dominates the buffer, so a long-lived
   connection does not accrete every byte it ever received. *)
let compact d =
  let len = Buffer.length d.buf in
  if d.consumed > 0 && (d.consumed = len || d.consumed > 4096) then begin
    let rest = Buffer.sub d.buf d.consumed (len - d.consumed) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf rest;
    d.consumed <- 0
  end

let declared_len d =
  let at i = Char.code (Buffer.nth d.buf (d.consumed + i)) in
  at 0 lor (at 1 lsl 8) lor (at 2 lsl 16) lor (at 3 lsl 24)

let feed d chunk =
  match d.poisoned with
  | Some e -> Error e
  | None ->
    Buffer.add_string d.buf chunk;
    let out = ref [] in
    let rec drain () =
      if residue d >= header_bytes then begin
        let declared = declared_len d in
        if declared > d.d_cap then begin
          let e = Oversize { declared; cap = d.d_cap } in
          d.poisoned <- Some e;
          Error e
        end
        else if residue d >= header_bytes + declared then begin
          let payload =
            Buffer.sub d.buf (d.consumed + header_bytes) declared
          in
          d.consumed <- d.consumed + header_bytes + declared;
          out := payload :: !out;
          drain ()
        end
        else Ok ()
      end
      else Ok ()
    in
    (match drain () with
     | Error e -> Error e
     | Ok () ->
       compact d;
       Ok (List.rev !out))
