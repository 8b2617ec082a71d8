module Memory = Dialed_msp430.Memory
module Hmac = Dialed_crypto.Hmac

type report = {
  challenge : string;
  er_min : int;
  er_max : int;
  er_exit : int;
  or_min : int;
  or_max : int;
  exec : bool;
  or_data : string;
  token : string;
}

let le16 v = Printf.sprintf "%c%c" (Char.chr (v land 0xFF)) (Char.chr ((v lsr 8) land 0xFF))

let token_parts ~challenge ~er_min ~er_max ~er_exit ~or_min ~or_max ~exec
    ~er_bytes ~or_data =
  [ challenge;
    le16 er_min; le16 er_max; le16 er_exit; le16 or_min; le16 or_max;
    (if exec then "\001" else "\000");
    er_bytes;
    or_data ]

let issue vrased mem ~exec layout ~challenge =
  let { Layout.er_min; er_max; er_exit; or_min; or_max; stack_top = _ } = layout in
  let er_bytes = Memory.dump mem ~addr:er_min ~len:(er_max - er_min + 1) in
  let or_data = Memory.dump mem ~addr:or_min ~len:(or_max + 2 - or_min) in
  let token =
    Vrased.mac_parts vrased
      (token_parts ~challenge ~er_min ~er_max ~er_exit ~or_min ~or_max ~exec
         ~er_bytes ~or_data)
  in
  { challenge; er_min; er_max; er_exit; or_min; or_max; exec; or_data; token }

let verify_with ~key_state ~expected_er r =
  if String.length expected_er <> r.er_max - r.er_min + 1 then
    Error "expected ER image size does not match the claimed range"
  else begin
    let expected_token =
      Hmac.mac_parts_with key_state
        (token_parts ~challenge:r.challenge ~er_min:r.er_min ~er_max:r.er_max
           ~er_exit:r.er_exit ~or_min:r.or_min ~or_max:r.or_max ~exec:r.exec
           ~er_bytes:expected_er ~or_data:r.or_data)
    in
    if not (Hmac.equal expected_token r.token) then
      Error "token mismatch: code, output or parameters were tampered with"
    else if not r.exec then
      Error "EXEC = 0: the operation did not complete untampered"
    else Ok ()
  end

let verify ~key ~expected_er r =
  verify_with ~key_state:(Hmac.key_state ~key) ~expected_er r
