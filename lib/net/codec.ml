type denial = Dialed_lifecycle.Lifecycle.denial =
  | Unknown_device
  | Revoked
  | Quarantined_device
  | Stale_firmware

type msg =
  | Hello of { device_id : string }
  | Ready
  | Request of { challenge : string; args : int list }
  | Report of string
  | Verdict of { accepted : bool; findings : (string * string) list }
  | Busy of string
  | Bye
  | Hello_ex of { device_id : string; window : int; firmware : string }
  | Welcome of { window : int }
  | Request_seq of { seq : int; challenge : string; args : int list }
  | Report_seq of { seq : int; wire : string }
  | Verdict_seq of
      { seq : int; accepted : bool; findings : (string * string) list }
  | Denied of { cause : denial; detail : string }

let denial_to_string = Dialed_lifecycle.Lifecycle.denial_to_string

type error =
  | Empty
  | Bad_tag of int
  | Truncated of { what : string; offset : int }
  | Trailing of { extra : int }
  | Bad_value of { what : string; value : int }

let pp_error ppf = function
  | Empty -> Format.pp_print_string ppf "empty message payload"
  | Bad_tag t -> Format.fprintf ppf "unknown message tag %d" t
  | Truncated { what; offset } ->
    Format.fprintf ppf "truncated %s at offset %d" what offset
  | Trailing { extra } -> Format.fprintf ppf "%d trailing bytes" extra
  | Bad_value { what; value } ->
    Format.fprintf ppf "bad %s value %d" what value

let error_to_string e = Format.asprintf "%a" pp_error e

let max_string = 1 lsl 16 (* fields carry 16-bit length prefixes *)
let max_window = 1 lsl 16 - 1

(* tags *)
let t_hello = 1
let t_ready = 2
let t_request = 3
let t_report = 4
let t_verdict = 5
let t_busy = 6
let t_bye = 7
(* pipelined session extension: a peer that never sends tags >= 8 talks
   to any gateway; a gateway that never saw Hello_ex never sends them *)
let t_hello_ex = 8
let t_welcome = 9
let t_request_seq = 10
let t_report_seq = 11
let t_verdict_seq = 12
(* lifecycle extension: only ever sent by a gateway that is denying a
   session, so a legacy anonymous peer (served under allow_anonymous)
   never sees it *)
let t_denied = 13

let denial_code = function
  | Revoked -> 1
  | Quarantined_device -> 2
  | Stale_firmware -> 3
  | Unknown_device -> 4

let denial_of_code = function
  | 1 -> Some Revoked
  | 2 -> Some Quarantined_device
  | 3 -> Some Stale_firmware
  | 4 -> Some Unknown_device
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Encoding.                                                         *)

let add_u16 b v =
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF))

let add_u32 b v =
  add_u16 b (v land 0xFFFF);
  add_u16 b ((v lsr 16) land 0xFFFF)

let add_str b s =
  let n = String.length s in
  if n >= max_string then
    invalid_arg (Printf.sprintf "Codec.encode: %d-byte string field" n);
  add_u16 b n;
  Buffer.add_string b s

let add_seq b seq =
  if seq < 0 || seq > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Codec.encode: sequence number %d" seq);
  add_u32 b seq

let add_request_body b challenge args =
  add_str b challenge;
  if List.length args >= max_string then
    invalid_arg "Codec.encode: too many args";
  add_u16 b (List.length args);
  List.iter (fun a -> add_u16 b (a land 0xFFFF)) args

let add_verdict_body b accepted findings =
  Buffer.add_char b (if accepted then '\001' else '\000');
  if List.length findings >= max_string then
    invalid_arg "Codec.encode: too many findings";
  add_u16 b (List.length findings);
  List.iter (fun (kind, detail) -> add_str b kind; add_str b detail) findings

let encode msg =
  let b = Buffer.create 64 in
  (match msg with
   | Hello { device_id } ->
     Buffer.add_char b (Char.chr t_hello);
     add_str b device_id
   | Ready -> Buffer.add_char b (Char.chr t_ready)
   | Request { challenge; args } ->
     Buffer.add_char b (Char.chr t_request);
     add_request_body b challenge args
   | Report wire ->
     Buffer.add_char b (Char.chr t_report);
     Buffer.add_string b wire
   | Verdict { accepted; findings } ->
     Buffer.add_char b (Char.chr t_verdict);
     add_verdict_body b accepted findings
   | Busy reason ->
     Buffer.add_char b (Char.chr t_busy);
     add_str b reason
   | Bye -> Buffer.add_char b (Char.chr t_bye)
   | Hello_ex { device_id; window; firmware } ->
     Buffer.add_char b (Char.chr t_hello_ex);
     add_str b device_id;
     if window < 1 || window > max_window then
       invalid_arg (Printf.sprintf "Codec.encode: window %d" window);
     add_u16 b window;
     (* the firmware field is appended only when claimed, so a
        no-firmware Hello_ex is byte-identical to the pre-lifecycle
        encoding — old gateways accept it, old captures still decode *)
     if firmware <> "" then add_str b firmware
   | Welcome { window } ->
     Buffer.add_char b (Char.chr t_welcome);
     if window < 1 || window > max_window then
       invalid_arg (Printf.sprintf "Codec.encode: window %d" window);
     add_u16 b window
   | Request_seq { seq; challenge; args } ->
     Buffer.add_char b (Char.chr t_request_seq);
     add_seq b seq;
     add_request_body b challenge args
   | Report_seq { seq; wire } ->
     Buffer.add_char b (Char.chr t_report_seq);
     add_seq b seq;
     Buffer.add_string b wire
   | Verdict_seq { seq; accepted; findings } ->
     Buffer.add_char b (Char.chr t_verdict_seq);
     add_seq b seq;
     add_verdict_body b accepted findings
   | Denied { cause; detail } ->
     Buffer.add_char b (Char.chr t_denied);
     Buffer.add_char b (Char.chr (denial_code cause));
     add_str b detail);
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Decoding: a cursor over untrusted bytes; every read is bounds-
   checked and surfaces a typed error through the [exception]-free
   result at the top.                                                *)

exception Fail of error

type cursor = { data : string; mutable pos : int }

let need c n what =
  if c.pos + n > String.length c.data then
    raise (Fail (Truncated { what; offset = c.pos }))

let byte c what =
  need c 1 what;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u16 c what =
  let lo = byte c what in
  let hi = byte c what in
  lo lor (hi lsl 8)

let str c what =
  let n = u16 c what in
  need c n what;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let u32 c what =
  let lo = u16 c what in
  let hi = u16 c what in
  lo lor (hi lsl 16)

let window c =
  let w = u16 c "window" in
  if w < 1 then raise (Fail (Bad_value { what = "window"; value = w }));
  w

let finish c msg =
  let extra = String.length c.data - c.pos in
  if extra <> 0 then raise (Fail (Trailing { extra }));
  msg

let decode data =
  if String.length data = 0 then Error Empty
  else begin
    let c = { data; pos = 0 } in
    let request_body () =
      let challenge = str c "challenge" in
      let argc = u16 c "arg count" in
      (challenge, List.init argc (fun _ -> u16 c "arg"))
    in
    let verdict_body () =
      let accepted =
        match byte c "accept flag" with
        | 0 -> false
        | 1 -> true
        | v -> raise (Fail (Bad_value { what = "accept flag"; value = v }))
      in
      let count = u16 c "finding count" in
      let findings =
        List.init count (fun _ ->
            let kind = str c "finding kind" in
            let detail = str c "finding detail" in
            (kind, detail))
      in
      (accepted, findings)
    in
    let rest_of_payload () =
      let wire = String.sub data c.pos (String.length data - c.pos) in
      c.pos <- String.length data;
      wire
    in
    try
      let tag = byte c "tag" in
      if tag = t_hello then
        finish c (Ok (Hello { device_id = str c "device id" }))
      else if tag = t_ready then finish c (Ok Ready)
      else if tag = t_request then begin
        let challenge, args = request_body () in
        finish c (Ok (Request { challenge; args }))
      end
      else if tag = t_report then finish c (Ok (Report (rest_of_payload ())))
      else if tag = t_verdict then begin
        let accepted, findings = verdict_body () in
        finish c (Ok (Verdict { accepted; findings }))
      end
      else if tag = t_busy then finish c (Ok (Busy (str c "busy reason")))
      else if tag = t_bye then finish c (Ok Bye)
      else if tag = t_hello_ex then begin
        let device_id = str c "device id" in
        let window = window c in
        (* pre-lifecycle encoders stop after the window; the firmware
           field is present iff bytes remain *)
        let firmware =
          if c.pos < String.length c.data then str c "firmware" else ""
        in
        finish c (Ok (Hello_ex { device_id; window; firmware }))
      end
      else if tag = t_welcome then finish c (Ok (Welcome { window = window c }))
      else if tag = t_request_seq then begin
        let seq = u32 c "sequence number" in
        let challenge, args = request_body () in
        finish c (Ok (Request_seq { seq; challenge; args }))
      end
      else if tag = t_report_seq then begin
        let seq = u32 c "sequence number" in
        finish c (Ok (Report_seq { seq; wire = rest_of_payload () }))
      end
      else if tag = t_verdict_seq then begin
        let seq = u32 c "sequence number" in
        let accepted, findings = verdict_body () in
        finish c (Ok (Verdict_seq { seq; accepted; findings }))
      end
      else if tag = t_denied then begin
        let code = byte c "denial cause" in
        match denial_of_code code with
        | None -> Error (Bad_value { what = "denial cause"; value = code })
        | Some cause ->
          finish c (Ok (Denied { cause; detail = str c "denial detail" }))
      end
      else Error (Bad_tag tag)
    with Fail e -> Error e
  end

let pp_msg ppf = function
  | Hello { device_id } -> Format.fprintf ppf "Hello %S" device_id
  | Ready -> Format.pp_print_string ppf "Ready"
  | Request { challenge; args } ->
    Format.fprintf ppf "Request chal=%dB args=[%s]" (String.length challenge)
      (String.concat ";" (List.map string_of_int args))
  | Report wire -> Format.fprintf ppf "Report %dB" (String.length wire)
  | Verdict { accepted; findings } ->
    Format.fprintf ppf "Verdict %s (%d finding%s)"
      (if accepted then "accepted" else "REJECTED")
      (List.length findings)
      (if List.length findings = 1 then "" else "s")
  | Busy reason -> Format.fprintf ppf "Busy %S" reason
  | Bye -> Format.pp_print_string ppf "Bye"
  | Hello_ex { device_id; window; firmware = "" } ->
    Format.fprintf ppf "Hello_ex %S window=%d" device_id window
  | Hello_ex { device_id; window; firmware } ->
    Format.fprintf ppf "Hello_ex %S window=%d fw=%S" device_id window firmware
  | Welcome { window } -> Format.fprintf ppf "Welcome window=%d" window
  | Request_seq { seq; challenge; args } ->
    Format.fprintf ppf "Request#%d chal=%dB args=[%s]" seq
      (String.length challenge)
      (String.concat ";" (List.map string_of_int args))
  | Report_seq { seq; wire } ->
    Format.fprintf ppf "Report#%d %dB" seq (String.length wire)
  | Verdict_seq { seq; accepted; findings } ->
    Format.fprintf ppf "Verdict#%d %s (%d finding%s)" seq
      (if accepted then "accepted" else "REJECTED")
      (List.length findings)
      (if List.length findings = 1 then "" else "s")
  | Denied { cause; detail } ->
    Format.fprintf ppf "Denied %s %S" (denial_to_string cause) detail
