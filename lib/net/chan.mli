(** A framed {!Codec.msg} channel over one blocking {!Transport}
    connection: scripted peers in tests and the single-prover
    [bench/main.exe net] loop. (The gateway, the prover {!Client} and
    the swarm read through {!Evconn} instead.)

    [recv] enforces a {e per-message} deadline: the clock starts when the
    call starts, and every underlying read gets only the remaining time.
    A peer that drips bytes without ever completing a frame (slow loris)
    therefore times out no matter how steadily it trickles. *)

type t

type error =
  | Frame_error of Frame.error
  | Codec_error of Codec.error
  | Eof_mid_frame of int
      (** the stream ended with this many bytes of an unfinished frame *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val create : Transport.conn -> t
(** Frames are capped at {!Frame.default_cap}. *)

val send : t -> Codec.msg -> unit
(** Frame and write one message. Raises {!Transport.Closed} when the
    connection is gone. *)

val recv : t -> ?deadline:float -> unit -> (Codec.msg option, error) result
(** Next message; [Ok None] is a clean end-of-stream. Raises
    {!Transport.Timeout} when [deadline] (seconds for the whole message)
    elapses. After an [Error] the channel is poisoned — the connection
    should be dropped. *)
