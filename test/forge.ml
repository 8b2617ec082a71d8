(* Doctored reports for the adversarial suites: where each log entry
   lives, and the strong attacker's re-MAC. That attacker knows the
   device key, so a doctored log reaches the verifier's replay or
   CF-Log walk instead of dying at the token check. *)

module A = Dialed_apex
module C = Dialed_core
module Hmac = Dialed_crypto.Hmac

(* log entry k lives at address or_max - 2k; as an or_data offset *)
let entry_offset (report : A.Pox.report) k =
  report.A.Pox.or_max - (2 * k) - report.A.Pox.or_min

let set_entry_word or_data off v =
  Bytes.set or_data off (Char.chr (v land 0xFF));
  Bytes.set or_data (off + 1) (Char.chr ((v lsr 8) land 0xFF))

let le16 v =
  Printf.sprintf "%c%c" (Char.chr (v land 0xFF))
    (Char.chr ((v lsr 8) land 0xFF))

(* recompute the token over [r] with the device key, binding the fields
   in Pox.issue's order *)
let token built (r : A.Pox.report) =
  let token =
    Hmac.mac_parts ~key:A.Device.default_key
      [ r.A.Pox.challenge;
        le16 r.A.Pox.er_min; le16 r.A.Pox.er_max; le16 r.A.Pox.er_exit;
        le16 r.A.Pox.or_min; le16 r.A.Pox.or_max;
        (if r.A.Pox.exec then "\001" else "\000");
        built.C.Pipeline.expected_er;
        r.A.Pox.or_data ]
  in
  { r with A.Pox.token }
