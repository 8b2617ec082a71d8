type error =
  | Frame_error of Frame.error
  | Codec_error of Codec.error
  | Eof_mid_frame of int

let pp_error ppf = function
  | Frame_error e -> Frame.pp_error ppf e
  | Codec_error e -> Codec.pp_error ppf e
  | Eof_mid_frame n ->
    Format.fprintf ppf "connection ended mid-frame (%d byte%s buffered)" n
      (if n = 1 then "" else "s")

let error_to_string e = Format.asprintf "%a" pp_error e

type t = {
  c : Transport.conn;
  dec : Frame.decoder;
  ready : string Queue.t;       (* decoded frames not yet handed out *)
  rbuf : bytes;
  mutable poisoned : error option;
}

let create c =
  { c; dec = Frame.decoder (); ready = Queue.create (); poisoned = None;
    rbuf = Bytes.create 4096 }

let send t msg = Transport.send t.c (Frame.encode (Codec.encode msg))

let decode_one t payload =
  match Codec.decode payload with
  | Ok msg -> Ok (Some msg)
  | Error e ->
    let e = Codec_error e in
    t.poisoned <- Some e;
    Error e

let recv t ?deadline () =
  match t.poisoned with
  | Some e -> Error e
  | None ->
    match Queue.take_opt t.ready with
    | Some payload -> decode_one t payload
    | None ->
      let t0 = Unix.gettimeofday () in
      let rec read_more () =
        let remaining =
          match deadline with
          | None -> None
          | Some d ->
            let left = d -. (Unix.gettimeofday () -. t0) in
            if left <= 0.0 then raise Transport.Timeout;
            Some left
        in
        let n = Transport.recv t.c ?deadline:remaining t.rbuf 0 4096 in
        if n = 0 then begin
          match Frame.residue t.dec with
          | 0 -> Ok None
          | r ->
            let e = Eof_mid_frame r in
            t.poisoned <- Some e;
            Error e
        end
        else begin
          match Frame.feed t.dec (Bytes.sub_string t.rbuf 0 n) with
          | Error e ->
            let e = Frame_error e in
            t.poisoned <- Some e;
            Error e
          | Ok [] -> read_more ()
          | Ok (first :: rest) ->
            List.iter (fun p -> Queue.add p t.ready) rest;
            decode_one t first
        end
      in
      read_more ()
