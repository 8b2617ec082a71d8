type reason = Key_revoked | Admin

type state = Registered | Attested | Quarantined of reason

type denial = Unknown_device | Revoked | Quarantined_device | Stale_firmware

let reason_to_string = function
  | Key_revoked -> "key-revoked"
  | Admin -> "admin"

let reason_of_string = function
  | "key-revoked" -> Some Key_revoked
  | "admin" -> Some Admin
  | _ -> None

let state_to_string = function
  | Registered -> "registered"
  | Attested -> "attested"
  | Quarantined r -> "quarantined:" ^ reason_to_string r

let denial_to_string = function
  | Unknown_device -> "unknown-device"
  | Revoked -> "revoked"
  | Quarantined_device -> "quarantined"
  | Stale_firmware -> "stale-firmware"

type device = {
  id : string;
  key_id : string;
  firmware : string;
  state : state;
  rounds : int;
}

type rollout = {
  stable : string;
  canary : (string * int) option;
}

type summary = {
  devices : int;
  registered : int;
  attested : int;
  quarantined : int;
  revoked_keys : int;
  rollout : rollout;
  allow_anonymous : bool;
}

type t = {
  m : Mutex.t;
  tbl : (string, device) Hashtbl.t;
  revoked : (string, unit) Hashtbl.t;
  mutable roll : rollout;
  allow_anonymous : bool;
  mutable jout : out_channel option;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* ---------------------------------------------------------------- *)
(* Journal: one record per line, tab-separated fields, '%'-escaping
   so ids containing tabs/newlines round-trip. Append-only; replay
   tolerates a torn final line (crash mid-append).                  *)

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '\t' -> Buffer.add_string b "%09"
      | '\n' -> Buffer.add_string b "%0a"
      | '\r' -> Buffer.add_string b "%0d"
      | '%' -> Buffer.add_string b "%25"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unesc s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '%' && !i + 2 < n then begin
       (match String.sub s (!i + 1) 2 with
        | "09" -> Buffer.add_char b '\t'
        | "0a" -> Buffer.add_char b '\n'
        | "0d" -> Buffer.add_char b '\r'
        | "25" -> Buffer.add_char b '%'
        | other -> Buffer.add_char b '%'; Buffer.add_string b other);
       i := !i + 3
     end
     else begin
       Buffer.add_char b s.[!i];
       incr i
     end)
  done;
  Buffer.contents b

(* Must be called with [t.m] held (all callers are). *)
let journal t fields =
  match t.jout with
  | None -> ()
  | Some oc ->
    output_string oc (String.concat "\t" (List.map esc fields));
    output_char oc '\n';
    flush oc

(* ---------------------------------------------------------------- *)
(* Mutations. Each has an unlocked [_locked] core so journal replay
   can reuse the exact transition logic without re-journaling.      *)

let register_locked t ~id ~key_id =
  match Hashtbl.find_opt t.tbl id with
  | None ->
    Hashtbl.replace t.tbl id
      { id; key_id; firmware = ""; state = Registered; rounds = 0 }
  | Some d ->
    (* Re-keying never clears quarantine: trust decisions only move
       through [release]. *)
    Hashtbl.replace t.tbl id { d with key_id }

let revoke_locked t key =
  Hashtbl.replace t.revoked key ();
  let hit = ref 0 in
  Hashtbl.iter
    (fun id d ->
      if d.key_id = key then
        match d.state with
        | Quarantined _ -> ()
        | Registered | Attested ->
          incr hit;
          Hashtbl.replace t.tbl id { d with state = Quarantined Key_revoked })
    t.tbl;
  !hit

let quarantine_locked t id reason =
  match Hashtbl.find_opt t.tbl id with
  | None -> false
  | Some d ->
    (match d.state with
     | Quarantined _ -> true
     | Registered | Attested ->
       Hashtbl.replace t.tbl id { d with state = Quarantined reason };
       true)

let release_locked t id =
  match Hashtbl.find_opt t.tbl id with
  | None -> Error (Printf.sprintf "unknown device %S" id)
  | Some d ->
    (match d.state with
     | Registered | Attested -> Ok ()
     | Quarantined _ ->
       if Hashtbl.mem t.revoked d.key_id then
         Error
           (Printf.sprintf
              "device %S is provisioned with revoked key %S; re-register it \
               with a fresh key first"
              id d.key_id)
       else begin
         Hashtbl.replace t.tbl id { d with state = Registered };
         Ok ()
       end)

let attested_locked t id =
  match Hashtbl.find_opt t.tbl id with
  | None -> false
  | Some d ->
    (match d.state with
     | Registered ->
       Hashtbl.replace t.tbl id { d with state = Attested; rounds = d.rounds + 1 };
       true
     | Attested ->
       Hashtbl.replace t.tbl id { d with rounds = d.rounds + 1 };
       false
     | Quarantined _ -> false)

let firmware_locked t id fw =
  match Hashtbl.find_opt t.tbl id with
  | None -> ()
  | Some d -> if d.firmware <> fw then Hashtbl.replace t.tbl id { d with firmware = fw }

let begin_canary_locked t version percent =
  t.roll <- { t.roll with canary = Some (version, percent) }

let promote_locked t =
  match t.roll.canary with
  | None -> Error "no canary rollout in progress"
  | Some (v, _) ->
    t.roll <- { stable = v; canary = None };
    Ok ()

let rollback_locked t =
  match t.roll.canary with
  | None -> Error "no canary rollout in progress"
  | Some _ ->
    t.roll <- { t.roll with canary = None };
    Ok ()

(* ---------------------------------------------------------------- *)
(* Replay + create.                                                  *)

let apply_record t fields =
  match fields with
  | [ "register"; id; key_id ] -> register_locked t ~id ~key_id
  | [ "revoke"; key ] -> ignore (revoke_locked t key)
  | [ "quarantine"; id; r ] ->
    let reason = Option.value (reason_of_string r) ~default:Admin in
    ignore (quarantine_locked t id reason)
  | [ "release"; id ] -> ignore (release_locked t id)
  | [ "attested"; id ] -> ignore (attested_locked t id)
  | [ "firmware"; id; fw ] -> firmware_locked t id fw
  | [ "stable"; v ] -> t.roll <- { t.roll with stable = v }
  | [ "canary"; v; pct ] ->
    (match int_of_string_opt pct with
     | Some p when p >= 0 && p <= 100 -> begin_canary_locked t v p
     | _ -> ())
  | [ "promote" ] -> ignore (promote_locked t)
  | [ "rollback" ] -> ignore (rollback_locked t)
  | _ -> ()  (* unknown/garbled record: skip, stay total *)

let replay t path =
  match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let size = in_channel_length ic in
    let buf = really_input_string ic size in
    (* A torn final line (no '\n') is a crash mid-append: drop it. *)
    let lines = String.split_on_char '\n' buf in
    let rec complete = function
      | [] | [ _ ] -> []  (* last element is "" (file ends in \n) or torn *)
      | l :: rest -> l :: complete rest
    in
    List.iter
      (fun line ->
        if line <> "" then
          apply_record t (List.map unesc (String.split_on_char '\t' line)))
      (complete lines)

let create ?journal:jpath ?(allow_anonymous = true) () =
  let t =
    {
      m = Mutex.create ();
      tbl = Hashtbl.create 64;
      revoked = Hashtbl.create 16;
      roll = { stable = ""; canary = None };
      allow_anonymous;
      jout = None;
    }
  in
  (match jpath with
   | None -> ()
   | Some path ->
     if Sys.file_exists path then replay t path;
     t.jout <-
       Some (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path));
  t

let close t =
  locked t (fun () ->
      match t.jout with
      | None -> ()
      | Some oc ->
        t.jout <- None;
        (try flush oc with Sys_error _ -> ());
        close_out_noerr oc)

(* ---------------------------------------------------------------- *)
(* Public mutations: transition under the mutex, journal what stuck. *)

let register t ~id ~key_id =
  if id = "" then Error "empty device id"
  else if String.length id > 128 then Error "device id longer than 128 bytes"
  else
    locked t (fun () ->
        register_locked t ~id ~key_id;
        journal t [ "register"; id; key_id ];
        Ok ())

let find t id = locked t (fun () -> Hashtbl.find_opt t.tbl id)

let devices t =
  locked t (fun () -> Hashtbl.fold (fun _ d acc -> d :: acc) t.tbl [])
  |> List.sort (fun a b -> compare a.id b.id)

let revoke_key t key =
  locked t (fun () ->
      let n = revoke_locked t key in
      journal t [ "revoke"; key ];
      n)

let is_revoked t key = locked t (fun () -> Hashtbl.mem t.revoked key)

let quarantine t id =
  locked t (fun () ->
      let ok = quarantine_locked t id Admin in
      if ok then journal t [ "quarantine"; id; reason_to_string Admin ];
      ok)

let release t id =
  locked t (fun () ->
      match release_locked t id with
      | Error _ as e -> e
      | Ok () ->
        journal t [ "release"; id ];
        Ok ())

let set_stable t v =
  locked t (fun () ->
      t.roll <- { t.roll with stable = v };
      journal t [ "stable"; v ])

let begin_canary t ~version ~percent =
  if version = "" then Error "empty canary version"
  else if percent < 0 || percent > 100 then
    Error (Printf.sprintf "canary percent %d out of range 0-100" percent)
  else
    locked t (fun () ->
        if t.roll.stable = "" then Error "set a stable version first"
        else if t.roll.stable = version then
          Error "canary version equals stable"
        else begin
          begin_canary_locked t version percent;
          journal t [ "canary"; version; string_of_int percent ];
          Ok ()
        end)

let promote t =
  locked t (fun () ->
      match promote_locked t with
      | Error _ as e -> e
      | Ok () ->
        journal t [ "promote" ];
        Ok ())

let rollback t =
  locked t (fun () ->
      match rollback_locked t with
      | Error _ as e -> e
      | Ok () ->
        journal t [ "rollback" ];
        Ok ())

let rollout t = locked t (fun () -> t.roll)

(* Canary assignment: a device is in the canary cohort iff the first
   four digest bytes of (canary version | id), read as a big-endian
   integer mod 100, fall below the percentage. Deterministic across
   restarts; re-shuffles per canary version so successive rollouts
   don't always burn the same devices. *)
let assigned_to version percent id =
  let d = Dialed_crypto.Sha256.digest (version ^ "\x00" ^ id) in
  let v =
    (Char.code d.[0] lsl 24)
    lor (Char.code d.[1] lsl 16)
    lor (Char.code d.[2] lsl 8)
    lor Char.code d.[3]
  in
  v mod 100 < percent

let assigned_canary t id =
  locked t (fun () ->
      match t.roll.canary with
      | None -> false
      | Some (v, pct) -> assigned_to v pct id)

let expected_firmware t id =
  locked t (fun () ->
      match t.roll.canary with
      | Some (v, pct) when assigned_to v pct id -> v
      | _ -> t.roll.stable)

let firmware_allowed_locked t fw =
  fw = ""
  || t.roll.stable = ""
  || fw = t.roll.stable
  || (match t.roll.canary with Some (v, _) -> fw = v | None -> false)

let firmware_allowed t fw = locked t (fun () -> firmware_allowed_locked t fw)

(* ---------------------------------------------------------------- *)
(* Gateway hooks.                                                    *)

let admit t ~device_id ~firmware =
  locked t (fun () ->
      if device_id = "" then
        if t.allow_anonymous then Ok () else Error Unknown_device
      else
        match Hashtbl.find_opt t.tbl device_id with
        | None ->
          if t.allow_anonymous then Ok () else Error Unknown_device
        | Some d ->
          if firmware <> "" && d.firmware <> firmware then begin
            Hashtbl.replace t.tbl device_id { d with firmware };
            journal t [ "firmware"; device_id; firmware ]
          end;
          let d = Hashtbl.find t.tbl device_id in
          if Hashtbl.mem t.revoked d.key_id then begin
            (match d.state with
             | Quarantined _ -> ()
             | Registered | Attested ->
               Hashtbl.replace t.tbl device_id
                 { d with state = Quarantined Key_revoked };
               journal t
                 [ "quarantine"; device_id; reason_to_string Key_revoked ]);
            Error Revoked
          end
          else
            match d.state with
            | Quarantined _ -> Error Quarantined_device
            | Registered | Attested ->
              if firmware_allowed_locked t firmware then Ok ()
              else Error Stale_firmware)

let recheck t device_id =
  if device_id = "" then Ok ()
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl device_id with
        | None -> if t.allow_anonymous then Ok () else Error Unknown_device
        | Some d ->
          if Hashtbl.mem t.revoked d.key_id then begin
            (match d.state with
             | Quarantined _ -> ()
             | Registered | Attested ->
               Hashtbl.replace t.tbl device_id
                 { d with state = Quarantined Key_revoked };
               journal t
                 [ "quarantine"; device_id; reason_to_string Key_revoked ]);
            Error Revoked
          end
          else
            match d.state with
            | Quarantined _ -> Error Quarantined_device
            | Registered | Attested -> Ok ())

let note_attested t device_id =
  if device_id <> "" then
    locked t (fun () ->
        if attested_locked t device_id then journal t [ "attested"; device_id ])

(* ---------------------------------------------------------------- *)
(* Introspection.                                                    *)

let summary t =
  locked t (fun () ->
      let registered = ref 0 and attested = ref 0 and quarantined = ref 0 in
      Hashtbl.iter
        (fun _ d ->
          match d.state with
          | Registered -> incr registered
          | Attested -> incr attested
          | Quarantined _ -> incr quarantined)
        t.tbl;
      {
        devices = Hashtbl.length t.tbl;
        registered = !registered;
        attested = !attested;
        quarantined = !quarantined;
        revoked_keys = Hashtbl.length t.revoked;
        rollout = t.roll;
        allow_anonymous = t.allow_anonymous;
      })

let json_string s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rollout_to_json r =
  match r.canary with
  | None ->
    Printf.sprintf {|{"stable":%s,"canary":null}|} (json_string r.stable)
  | Some (v, pct) ->
    Printf.sprintf {|{"stable":%s,"canary":{"version":%s,"percent":%d}}|}
      (json_string r.stable) (json_string v) pct

let summary_to_json s =
  Printf.sprintf
    {|{"devices":%d,"registered":%d,"attested":%d,"quarantined":%d,"revoked_keys":%d,"allow_anonymous":%b,"rollout":%s}|}
    s.devices s.registered s.attested s.quarantined s.revoked_keys
    s.allow_anonymous (rollout_to_json s.rollout)

let device_to_json d =
  Printf.sprintf
    {|{"id":%s,"key_id":%s,"firmware":%s,"state":"%s","rounds":%d}|}
    (json_string d.id) (json_string d.key_id) (json_string d.firmware)
    (state_to_string d.state) d.rounds
