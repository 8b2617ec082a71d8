let p1in = 0x0020
let p1out = 0x0021
let p2in = 0x0028
let p2out = 0x0029
let p2dir = 0x002A
let p3in = 0x0018
let p3out = 0x0019
let ifg1 = 0x0002
let u0rxbuf = 0x0076
let u0txbuf = 0x0077
let adc12mem0 = 0x0140
let ta0r = 0x0170
let taccr1 = 0x0174

let urxifg_bit = 0x40

type t = {
  uart_rx : int Queue.t;
  mutable uart_tx_rev : int list;
  adc_samples : int Queue.t;
  mutable adc_last : int;
  echo_durations : int Queue.t;
  mutable capture : int;
  mutable gpio_in : int * int * int;   (* P1, P2, P3 input pins *)
  mutable gpio_out : int * int * int;  (* last written P1, P2, P3 *)
  mutable gpio_writes_rev : (string * int) list;
  mutable timer : int;
}

let feed_uart t bytes = List.iter (fun b -> Queue.add (b land 0xFF) t.uart_rx) bytes
let feed_adc t samples = List.iter (fun s -> Queue.add (s land 0xFFF) t.adc_samples) samples
let feed_echo t ds = List.iter (fun d -> Queue.add (Word.mask16 d) t.echo_durations) ds

let set_gpio_in t ~port v =
  let v = Word.mask8 v in
  let p1, p2, p3 = t.gpio_in in
  t.gpio_in <-
    (match port with
     | `P1 -> (v, p2, p3)
     | `P2 -> (p1, v, p3)
     | `P3 -> (p1, p2, v))

let uart_sent t = List.rev t.uart_tx_rev
let gpio_writes t = List.rev t.gpio_writes_rev

let last_gpio t ~port =
  let p1, p2, p3 = t.gpio_out in
  match port with `P1 -> p1 | `P2 -> p2 | `P3 -> p3

let adc_read t =
  (match Queue.take_opt t.adc_samples with
   | Some s -> t.adc_last <- s
   | None -> ());
  t.adc_last

let record_gpio t name v = t.gpio_writes_rev <- (name, v) :: t.gpio_writes_rev

let create mem =
  let t =
    { uart_rx = Queue.create (); uart_tx_rev = [];
      adc_samples = Queue.create (); adc_last = 0;
      echo_durations = Queue.create (); capture = 0;
      gpio_in = (0, 0, 0); gpio_out = (0, 0, 0);
      gpio_writes_rev = []; timer = 0 }
  in
  let gpio_device =
    { Memory.dev_name = "gpio";
      dev_lo = p3in; dev_hi = p2dir;  (* 0x0018 .. 0x002A covers P1-P3 *)
      dev_read =
        (fun addr ->
           let p1, p2, p3 = t.gpio_in in
           if addr = p1in then Some p1
           else if addr = p2in then Some p2
           else if addr = p3in then Some p3
           else None (* OUT/DIR reads fall back to RAM mirror *));
      dev_write =
        (fun addr v ->
           let o1, o2, o3 = t.gpio_out in
           if addr = p1out then begin
             t.gpio_out <- (v, o2, o3);
             record_gpio t "P1OUT" v
           end
           else if addr = p2out then begin
             t.gpio_out <- (o1, v, o3);
             record_gpio t "P2OUT" v;
             (* bit 0 of P2OUT is the ultrasonic trigger line *)
             if v land 1 = 1 then
               match Queue.take_opt t.echo_durations with
               | Some d -> t.capture <- d
               | None -> ()
           end
           else if addr = p3out then begin
             t.gpio_out <- (o1, o2, v);
             record_gpio t "P3OUT" v
           end);
      dev_tick = Memory.no_tick }
  in
  let uart_device =
    { Memory.dev_name = "uart";
      dev_lo = u0rxbuf; dev_hi = u0txbuf;
      dev_read =
        (fun addr ->
           if addr = u0rxbuf then
             Some (match Queue.take_opt t.uart_rx with Some b -> b | None -> 0)
           else None);
      dev_write =
        (fun addr v -> if addr = u0txbuf then t.uart_tx_rev <- v :: t.uart_tx_rev);
      dev_tick = Memory.no_tick }
  in
  let ifg_device =
    { Memory.dev_name = "ifg1";
      dev_lo = ifg1; dev_hi = ifg1;
      dev_read =
        (fun _ -> Some (if Queue.is_empty t.uart_rx then 0 else urxifg_bit));
      dev_write = (fun _ _ -> ());
      dev_tick = Memory.no_tick }
  in
  let adc_device =
    { Memory.dev_name = "adc12";
      dev_lo = adc12mem0; dev_hi = adc12mem0 + 1;
      dev_read =
        (fun addr ->
           (* word register: low byte read samples, high byte completes it *)
           if addr = adc12mem0 then Some (Word.low_byte (adc_read t))
           else Some (Word.high_byte t.adc_last));
      dev_write = (fun _ _ -> ());
      dev_tick = Memory.no_tick }
  in
  let timer_device =
    { Memory.dev_name = "timer_a";
      dev_lo = ta0r; dev_hi = taccr1 + 1;
      dev_read =
        (fun addr ->
           if addr = ta0r then Some (Word.low_byte t.timer)
           else if addr = ta0r + 1 then Some (Word.high_byte t.timer)
           else if addr = taccr1 then Some (Word.low_byte t.capture)
           else if addr = taccr1 + 1 then Some (Word.high_byte t.capture)
           else None);
      dev_write = (fun _ _ -> ());
      dev_tick = (fun n -> t.timer <- Word.mask16 (t.timer + n)) }
  in
  List.iter (Memory.attach mem)
    [ gpio_device; uart_device; ifg_device; adc_device; timer_device ];
  t
