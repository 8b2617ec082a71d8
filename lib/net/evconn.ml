(* Non-blocking framed connection pump for event-loop drivers (the
   gateway and the prover sessions).

   One [t] per connection: readiness events (fd or loopback hook) drain
   the transport into the poisoned incremental {!Frame} decoder and
   surface decoded {!Codec} messages; sends are queued in a bounded
   per-connection write queue and flushed opportunistically, with write
   interest armed only while the kernel buffer is full.

   Handlers own the connection's fate: [on_eof]/[on_error] do not close,
   and every handler must close — {!close}, or {!close_after_flush} to
   let queued verdicts drain first. Until it does, an fd's EOF or error
   is seen again on every loop iteration (readiness is level-triggered),
   and the handler fires again each time. Everything here runs on the
   loop thread. *)

type error =
  [ `Eof_mid_frame  (** peer vanished with a partial frame buffered *)
  | `Frame of Frame.error
  | `Codec of Codec.error
  | `Wqueue_overflow  (** peer not reading; queued bytes exceed the cap *)
  | `Send_closed  (** write raced the peer's disappearance *) ]

let error_to_string = function
  | `Eof_mid_frame -> "eof mid-frame"
  | `Frame e -> Frame.error_to_string e
  | `Codec e -> Codec.error_to_string e
  | `Wqueue_overflow -> "write queue overflow"
  | `Send_closed -> "send on closed connection"

type t = {
  loop : Evloop.t;
  conn : Transport.conn;
  dec : Frame.decoder;
  kind : [ `Fd of Unix.file_descr | `Hook ];
  wq : string Queue.t;
  mutable wq_off : int; (* sent prefix of the queue head *)
  mutable wq_bytes : int;
  wq_max : int;
  mutable draining : bool; (* close once the write queue empties *)
  mutable closed : bool;
  on_msg : t -> Codec.msg -> unit;
  on_eof : t -> unit;
  on_error : t -> error -> unit;
  on_traffic : rx:int -> tx:int -> unit;
}

let is_closed t = t.closed

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.kind with
     | `Fd fd -> Evloop.unwatch t.loop fd
     | `Hook -> Transport.on_readable t.conn None);
    Transport.close t.conn
  end

let fail t e = if not t.closed then t.on_error t e

let rec read_ready t =
  if (not t.closed) && not t.draining then begin
    let scratch = Evloop.scratch t.loop in
    match Transport.try_recv t.conn scratch 0 (Bytes.length scratch) with
    | `Again -> ()
    | `Eof ->
      if Frame.residue t.dec > 0 then fail t `Eof_mid_frame else t.on_eof t
    | `Data n ->
      t.on_traffic ~rx:n ~tx:0;
      let chunk = Bytes.sub_string scratch 0 n in
      (match Frame.feed t.dec chunk with
       | Error e -> fail t (`Frame e)
       | Ok payloads ->
         let rec go = function
           | [] -> read_ready t (* drain until `Again / `Eof *)
           | p :: rest ->
             (match Codec.decode p with
              | Error e -> fail t (`Codec e)
              | Ok msg ->
                t.on_msg t msg;
                (* a handler that closed or condemned the connection
                   hears nothing more, even from this same read *)
                if not (t.closed || t.draining) then go rest)
         in
         go payloads)
  end

and read_interest t =
  if t.draining then None else Some (fun () -> read_ready t)

and arm_write t =
  match t.kind with
  | `Fd fd ->
    Evloop.watch t.loop fd ~read:(read_interest t)
      ~write:(Some (fun () -> flush t))
  | `Hook -> () (* loopback sends never block *)

and disarm_write t =
  match t.kind with
  | `Fd fd -> Evloop.watch t.loop fd ~read:(read_interest t) ~write:None
  | `Hook -> ()

and flush t =
  if not t.closed then
    if Queue.is_empty t.wq then begin
      disarm_write t;
      if t.draining then close t
    end
    else begin
      let head = Queue.peek t.wq in
      let len = String.length head - t.wq_off in
      match Transport.try_send t.conn head t.wq_off len with
      | `Sent n ->
        t.on_traffic ~rx:0 ~tx:n;
        t.wq_bytes <- t.wq_bytes - n;
        if n = len then begin
          ignore (Queue.pop t.wq);
          t.wq_off <- 0;
          flush t
        end
        else begin
          t.wq_off <- t.wq_off + n;
          arm_write t
        end
      | `Again -> arm_write t
      | exception Transport.Closed -> fail t `Send_closed
    end

let send t msg =
  (* sends after close are dropped: best effort to a peer that already
     vanished *)
  if not t.closed then begin
    let frame = Frame.encode ~cap:(Frame.cap t.dec) (Codec.encode msg) in
    Queue.add frame t.wq;
    t.wq_bytes <- t.wq_bytes + String.length frame;
    flush t;
    if (not t.closed) && t.wq_bytes > t.wq_max then fail t `Wqueue_overflow
  end

let close_after_flush t =
  if not t.closed then
    if Queue.is_empty t.wq then close t
    else begin
      (* stop consuming the peer: a draining connection is already
         condemned, so nothing it says matters anymore *)
      t.draining <- true;
      match t.kind with
      | `Fd fd ->
        Evloop.watch t.loop fd ~read:None ~write:(Some (fun () -> flush t))
      | `Hook -> Transport.on_readable t.conn None
    end

let attach ~loop ?(cap = Frame.default_cap) ?(wq_max = 1 lsl 20) ~on_msg
    ~on_eof ~on_error ?(on_traffic = fun ~rx:_ ~tx:_ -> ()) conn =
  let kind =
    match Transport.readiness conn with
    | Transport.Fd fd -> `Fd fd
    | Transport.Hook -> `Hook
  in
  let t =
    { loop; conn; dec = Frame.decoder ~cap (); kind;
      wq = Queue.create (); wq_off = 0; wq_bytes = 0; wq_max;
      draining = false; closed = false; on_msg; on_eof; on_error; on_traffic }
  in
  (match kind with
   | `Fd fd ->
     Transport.set_nonblock conn;
     Evloop.watch loop fd ~read:(Some (fun () -> read_ready t)) ~write:None
   | `Hook ->
     let thunk = Evloop.hook_source loop (fun () -> read_ready t) in
     Transport.on_readable conn (Some thunk);
     (* bytes queued before the hook existed don't re-fire it *)
     Evloop.post loop (fun () -> read_ready t));
  t
