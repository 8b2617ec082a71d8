(* The gateway under test, run as a child process of the benchmark (the
   same executable, [gateway] subcommand), and the parent's handle on
   it. A separate process gives the gateway its own core and lets the
   driver read its CPU time and memory from /proc without touching
   it. *)

module F = Dialed_fleet
module N = Dialed_net
module W = Workload

external allowed_cpus : unit -> int array = "e2e_allowed_cpus"
external pin_cpu : int -> bool = "e2e_pin_cpu"

(* Driver on the first CPU this process may use, gateway on the second.
   Left to itself the scheduler keeps the two on one CPU, where the
   gateway gets about three quarters of it while the other CPU idles.
   [None] with fewer than two CPUs. Read before the driver pins itself:
   a child inherits its parent's mask. *)
let placement =
  lazy
    (match allowed_cpus () with
     | cpus when Array.length cpus >= 2 -> Some (cpus.(0), cpus.(1))
     | _ -> None)

(* ---- child ---- *)

(* One engine thread: [domains = 1] replays inline on the event loop.
   With [domains >= 2] the loop can miss a verify-pool wakeup
   (Evloop.drain_pipe clears [signalled] before reading the pipe) and
   stall; see README.md. *)
let serve (w : W.t) ~seed ~cpu =
  Option.iter (fun c -> ignore (pin_cpu c : bool)) cpu;
  let built = Dialed_apps.Apps.build w.W.app in
  let plan = F.Plan.of_built built in
  let listener, port = N.Transport.tcp_listener ~backlog:64 ~port:0 () in
  let config =
    { N.Server.default_config with
      N.Server.engine = N.Server.Evloop; domains = 1; window = 32;
      max_window = 32; max_conns = 64; read_deadline = Some 10.0;
      args = w.W.app.Dialed_apps.Apps.benign_args;
      session_seed = W.session_seed;
      memo = (if w.W.memo then Some F.Memo.default_config else None);
      lifecycle = (if w.W.registry then Some (W.registry ~seed) else None) }
  in
  let server = N.Server.create ~config ~plan listener in
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> N.Server.request_stop server));
  Printf.printf "port %d\n%!" port;
  N.Server.serve_forever server;
  print_endline (N.Server.stats_to_json (N.Server.stop server))

(* ---- parent ---- *)

type t = {
  pid : int;
  out : Unix.file_descr;   (* the child's stdout *)
  port : int;
  setup_s : float;         (* spawn until the port line arrived *)
}

let live : int list ref = ref []

(* Never leave a gateway behind, whatever path the driver exits by. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let read_line_within fd ~timeout =
  let buf = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then failwith "gateway: no reply within the deadline";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ ->
      (match Unix.read fd byte 0 1 with
       | 0 -> failwith "gateway: exited early"
       | _ ->
         if Bytes.get byte 0 = '\n' then Buffer.contents buf
         else (Buffer.add_char buf (Bytes.get byte 0); go ()))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* One Hello_ex / Welcome / Bye exchange: the event loop is running.
   Until it is, a SIGTERM would race the loop's own start-up (the stop
   request closes the listener the loop is about to watch). *)
let await_serving ~port ~device =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let send msg =
        let f = N.Frame.encode (N.Codec.encode msg) in
        ignore (Unix.write_substring fd f 0 (String.length f) : int)
      in
      let dec = N.Frame.decoder () and buf = Bytes.create 4096 in
      let rec recv () =
        match Unix.select [ fd ] [] [] 30.0 with
        | [], _, _ -> failwith "gateway: no Welcome"
        | _ ->
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          if n = 0 then None
          else
            match N.Frame.feed dec (Bytes.sub_string buf 0 n) with
            | Ok (p :: _) -> Some (N.Codec.decode p)
            | Ok [] -> recv ()
            | Error _ -> failwith "gateway: bad frame"
      in
      send (N.Codec.Hello_ex { device_id = device; window = 1; firmware = "" });
      (match recv () with
       | Some (Ok (N.Codec.Welcome _)) -> ()
       | _ -> failwith "gateway: expected Welcome");
      send N.Codec.Bye;
      ignore (recv () : _ option))

let spawn (w : W.t) ~seed =
  let exe = Sys.executable_name in
  let r, wr = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let cpu =
    match Lazy.force placement with
    | Some (_, c) -> [| "--cpu"; string_of_int c |]
    | None -> [||]
  in
  let pid =
    Unix.create_process exe
      (Array.append
         [| exe; "gateway"; "--workload"; w.W.name; "--seed"; string_of_int seed |]
         cpu)
      Unix.stdin wr Unix.stderr
  in
  live := pid :: !live;
  Unix.close wr;
  let line = read_line_within r ~timeout:120.0 in
  let setup_s = Unix.gettimeofday () -. t0 in
  match String.split_on_char ' ' line with
  | [ "port"; p ] ->
    let port = int_of_string p in
    await_serving ~port ~device:(W.devices ~seed).(0);
    { pid; out = r; port; setup_s }
  | _ -> failwith ("gateway: unexpected first line " ^ line)

(* SIGTERM, collect the final stats JSON, reap. *)
let stop g =
  Unix.kill g.pid Sys.sigterm;
  let stats = read_line_within g.out ~timeout:60.0 in
  Unix.close g.out;
  ignore (Unix.waitpid [] g.pid);
  live := List.filter (( <> ) g.pid) !live;
  Json.parse stats

let read_proc path =
  (* /proc files report length 0: read until EOF *)
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let b = Buffer.create 1024 in
      (try
         while true do Buffer.add_channel b ic 1 done
       with End_of_file -> ());
      Buffer.contents b)

(* utime + stime of the whole process, in seconds. Linux reports them
   in USER_HZ ticks, which is 100 on every architecture it exposes. *)
let cpu_seconds pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let fields = String.split_on_char ' ' (String.sub s after (String.length s - after)) in
  let field i = float_of_string (List.nth fields i) in
  (* fields after the command name start at stat(5) field 3 *)
  (field (14 - 3) +. field (15 - 3)) /. 100.0

(* CPU time the hypervisor took from this machine's CPUs (the steal
   column of /proc/stat), in seconds summed over CPUs; 0 where the
   kernel does not report it. *)
let steal_seconds () =
  match String.split_on_char '\n' (read_proc "/proc/stat") with
  | first :: _ ->
    (match List.filter (( <> ) "") (String.split_on_char ' ' first) with
     | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
       float_of_string steal /. 100.0
     | _ -> 0.0)
  | [] -> 0.0

(* Peak resident set (VmHWM), in MB. *)
let peak_rss_mb pid =
  let s = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  let kb =
    List.find_map int_of_string_opt
      (String.split_on_char ' ' (String.sub line 6 (String.length line - 6)))
  in
  float_of_int (Option.get kb) /. 1024.0
