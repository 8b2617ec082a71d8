(* A scripted protocol peer for tests: one Evconn on a private Evloop,
   driven on the caller's thread the way Client.run_session drives a
   prover session. What the connection delivers queues up as events, and
   [recv] runs the loop until there is one or its deadline passes. Like
   every Evconn handler, the peer closes on end-of-stream and on any
   error; after that, [recv] answers [`Eof]. *)

module N = Dialed_net

type event =
  [ `Msg of N.Codec.msg | `Eof | `Error of N.Evconn.error | `Timeout ]

type t = { loop : N.Evloop.t; ev : N.Evconn.t; events : event Queue.t }

let create conn =
  let loop = N.Evloop.create () in
  let events = Queue.create () in
  let ev =
    N.Evconn.attach ~loop
      ~on_msg:(fun _ m -> Queue.add (`Msg m) events)
      ~on_eof:(fun ev -> Queue.add `Eof events; N.Evconn.close ev)
      ~on_error:(fun ev e -> Queue.add (`Error e) events; N.Evconn.close ev)
      conn
  in
  { loop; ev; events }

let send t msg = N.Evconn.send t.ev msg

let recv ?(deadline = 2.0) t =
  let expired = ref false in
  let timer = N.Evloop.after t.loop deadline (fun () -> expired := true) in
  N.Evloop.run t.loop ~stop:(fun () ->
      !expired || (not (Queue.is_empty t.events)) || N.Evconn.is_closed t.ev);
  N.Evloop.cancel t.loop timer;
  match Queue.take_opt t.events with
  | Some e -> e
  | None -> if N.Evconn.is_closed t.ev then `Eof else `Timeout

(* the next message; anything else fails the test *)
let msg ?deadline t =
  match recv ?deadline t with
  | `Msg m -> m
  | `Eof -> Alcotest.fail "peer: connection ended"
  | `Error e -> Alcotest.failf "peer: %s" (N.Evconn.error_to_string e)
  | `Timeout -> Alcotest.fail "peer: no message before the deadline"

let close t =
  N.Evconn.close t.ev;
  N.Evloop.close t.loop

(* Raw bytes straight onto a connection no peer drives: hostile input,
   and write-only scripted gateways. Loopback pipes are locked, so this
   is safe from another thread. *)
let write conn s =
  match N.Transport.try_send conn s 0 (String.length s) with
  | `Sent n when n = String.length s -> ()
  | _ -> Alcotest.fail "peer: short write"

let write_msg conn msg = write conn (N.Frame.encode (N.Codec.encode msg))
