(* The four workloads and the seeded traffic they send. The gateway
   child and the load driver both derive everything here from the
   workload name and the seed, so the gateway receives only generated
   traffic and the same seed gives the same inputs. *)

module A = Dialed_apex
module C = Dialed_core
module M = Dialed_msp430
module L = Dialed_lifecycle.Lifecycle
module Apps = Dialed_apps.Apps

type kind = Benign | Attack | Forged

type loop =
  | Closed            (* next round only after a verdict comes back *)
  | Open of float     (* rounds due on a seeded Poisson schedule, per s *)

type t = {
  name : string;
  why : string;
  app : Apps.app;
  memo : bool;            (* gateway verdict memo armed *)
  registry : bool;        (* gateway enforces a lifecycle registry *)
  loop : loop;
  window : int;           (* rounds in flight a session asks for *)
  session_rounds : int;   (* rounds per session, then Bye and reconnect *)
  shapes : int;           (* distinct benign device states (log shapes) *)
  attack_in : int;        (* 1 round in n runs the data-only attack; 0: none *)
  forged_in : int;        (* 1 round in n carries a forged token; 0: none *)
}

(* At most this many connections are open at a time: the driver gets
   one core and the gateway the other on a 2-core host. *)
let connections = 2

(* Sessions end after a fixed number of rounds, short enough that every
   second of the window closes dozens of them: enough samples for each
   second's session p90 on every workload. *)
let replay_heavy = {
  name = "replay_heavy";
  why = "fire-sensor, memo off, 2 pipelined sessions: every round pays the \
         full MSP430 replay";
  app = Apps.fire_sensor; memo = false; registry = false; loop = Closed;
  window = 32; session_rounds = 64; shapes = 16; attack_in = 0;
  forged_in = 0;
}

let memo_hit = {
  replay_heavy with
  name = "memo_hit";
  why = "same traffic, memo on: replay elided, leaving decode, precheck and \
         the event-loop residual";
  memo = true;
}

let churn = {
  replay_heavy with
  name = "churn";
  why = "connect, Hello_ex, 1 round, Bye per session: accept, handshake, \
         gate and registry admission per round";
  memo = true; registry = true; window = 1; session_rounds = 1;
}

let fleet_mixed = {
  name = "fleet_mixed";
  why = "open loop at 2000 rounds/s with registry and memo; 1 in 8 \
         data-only attacks, 1 in 8 forged tokens";
  app = Apps.syringe_pump_vuln; memo = true; registry = true;
  loop = Open 2000.0; window = 32; session_rounds = 32; shapes = 1;
  attack_in = 8; forged_in = 8;
}

let all = [ replay_heavy; memo_hit; churn; fleet_mixed ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Independent seeded streams, so that e.g. the device list does not
   shift when the traffic mix changes. *)
let rng ~seed stream = Random.State.make [| seed; stream |]

let session_seed = "e2e-gateway"

(* The fleet's device ids; every one is registered when the workload
   runs a registry. *)
let devices ~seed =
  let r = rng ~seed 1 in
  Array.init 64 (fun _ -> Printf.sprintf "dev-%08x" (Random.State.bits r))

let registry ~seed =
  let lc = L.create ~allow_anonymous:false () in
  Array.iter
    (fun id ->
       match L.register lc ~id ~key_id:"fleet-key-1" with
       | Ok () -> ()
       | Error e -> failwith ("register " ^ id ^ ": " ^ e))
    (devices ~seed);
  lc

(* Prover side: one executed device per log shape. A round only needs
   SW-Att over that state with the round's fresh challenge. *)
type prover = {
  benign : A.Device.t array;
  attack : A.Device.t;
}

let run_device built app ~args ~adc =
  let device = C.Pipeline.device built in
  (match adc with
   | [] -> app.Apps.setup device
   | samples -> M.Peripherals.feed_adc (A.Device.board device) samples);
  let r = A.Device.run_operation ~args device in
  if not r.A.Device.completed then failwith "prover: operation did not complete";
  device

let prover w ~seed built =
  let r = rng ~seed 2 in
  let args = w.app.Apps.benign_args in
  let benign =
    Array.init w.shapes (fun _ ->
        (* several shapes means fire-sensor: four seeded ADC samples,
           all below the alarm threshold so every shape takes the same
           path; a single shape is the app's own scripted scenario *)
        let adc =
          if w.shapes > 1 then List.init 4 (fun _ -> 560 + Random.State.int r 60)
          else []
        in
        run_device built w.app ~args ~adc)
  in
  let attack =
    if w.attack_in > 0 then
      run_device built w.app ~args:Apps.attack_args_syringe_vuln ~adc:[]
    else benign.(0)
  in
  { benign; attack }

(* A forged report: the honest one with one token bit flipped, so it
   passes the challenge gate and dies in the HMAC precheck. *)
let forge (report : A.Pox.report) =
  let t = Bytes.of_string report.A.Pox.token in
  Bytes.set t 5 (Char.chr (Char.code (Bytes.get t 5) lxor 0x01));
  { report with A.Pox.token = Bytes.to_string t }

let respond p ~kind ~shape ~challenge =
  match kind with
  | Benign -> A.Device.attest p.benign.(shape) ~challenge
  | Attack -> A.Device.attest p.attack ~challenge
  | Forged -> forge (A.Device.attest p.benign.(shape) ~challenge)

(* What the verdict must say: accepted, or the kind of the decisive
   finding. *)
let expected = function
  | Benign -> "accepted"
  | Attack -> "oob-access"
  | Forged -> "bad-token"

let verdict_kind ~accepted findings =
  if accepted then "accepted"
  else match findings with (k, _) :: _ -> k | [] -> "no-finding"

(* The traffic streams: which shape and kind the i-th round carries, and
   which device the j-th session greets as. Separate streams keep both
   sequences fixed by the seed however rounds land on sessions. *)
type traffic = { t_rng : Random.State.t; d_rng : Random.State.t; t_w : t }

let traffic w ~seed = { t_rng = rng ~seed 3; d_rng = rng ~seed 6; t_w = w }

let next_round tr =
  let w = tr.t_w in
  let shape = Random.State.int tr.t_rng w.shapes in
  let share n = if n > 0 then 1.0 /. float_of_int n else 0.0 in
  let roll = Random.State.float tr.t_rng 1.0 in
  let kind =
    if roll < share w.attack_in then Attack
    else if roll < share w.attack_in +. share w.forged_in then Forged
    else Benign
  in
  (kind, shape)

let next_device tr devs = devs.(Random.State.int tr.d_rng (Array.length devs))

(* Open-loop schedule: exponential gaps at the workload's rate, in ns. *)
type schedule = { s_rng : Random.State.t; s_mean_ns : float }

let schedule w ~seed =
  match w.loop with
  | Closed -> None
  | Open rate -> Some { s_rng = rng ~seed 4; s_mean_ns = 1e9 /. rate }

let next_gap_ns s =
  let u = Random.State.float s.s_rng 1.0 in
  int_of_float (-.s.s_mean_ns *. log (1.0 -. u))
