module M = Dialed_msp430
module Memory = M.Memory
module Cpu = M.Cpu
module Isa = M.Isa
module Sha256 = Dialed_crypto.Sha256

let rom_base = 0xA000 (* the SW-Att ROM region *)
let key_base = 0x6A00
let challenge_base = 0x0240 (* the network stack deposits the challenge *)
let mac_base = 0x0260 (* SW-Att leaves the 32-byte tag *)
let exec_reg = 0x0130 (* read-only EXEC flag byte, exported by the monitor *)
let challenge_bytes = 32

(* secure scratch (VRASED's exclusive stack region) *)
let h0 = 0x7000          (* H[8], 32 bytes, (lo,hi) pairs *)
let w0 = 0x7020          (* W[64], 256 bytes *)
let va = 0x7120          (* working vars a..h, 32 bytes *)
let ta = 0x7160          (* 32-bit temporaries *)
let tb = 0x7164
let t1m = 0x7168
let sw_stack = 0x71FE    (* SW-Att's own stack, grows down *)
let stage = 0x7200       (* message staging buffer *)
let stage_limit = 0x9F00

(* ------------------------------------------------------------------ *)
(* Assembly emitter.                                                   *)

type emitter = { buf : Buffer.t }

let line e fmt =
  Printf.ksprintf
    (fun s ->
       Buffer.add_string e.buf "    ";
       Buffer.add_string e.buf s;
       Buffer.add_char e.buf '\n')
    fmt

let label e l =
  Buffer.add_string e.buf l;
  Buffer.add_string e.buf ":\n"

(* 32-bit accumulator lives in r11:r10 (hi:lo). *)

let load32 e a =
  line e "mov &0x%04x, r10" a;
  line e "mov &0x%04x, r11" (a + 2)

let store32 e a =
  line e "mov r10, &0x%04x" a;
  line e "mov r11, &0x%04x" (a + 2)

let add32_abs e a =
  line e "add &0x%04x, r10" a;
  line e "addc &0x%04x, r11" (a + 2)

let xor32_abs e a =
  line e "xor &0x%04x, r10" a;
  line e "xor &0x%04x, r11" (a + 2)

let and32_abs e a =
  line e "and &0x%04x, r10" a;
  line e "and &0x%04x, r11" (a + 2)

let not32 e =
  line e "inv r10";
  line e "inv r11"

(* rotate the accumulator right by one bit: bit0(lo) -> carry -> bit31 *)
let ror1 e =
  line e "bit #1, r10";
  line e "rrc r11";
  line e "rrc r10"

let shr1 e =
  line e "clrc";
  line e "rrc r11";
  line e "rrc r10"

let swap_halves e =
  line e "mov r10, r15";
  line e "mov r11, r10";
  line e "mov r15, r11"

let ror e n =
  let n = n mod 32 in
  let n = if n >= 16 then (swap_halves e; n - 16) else n in
  for _ = 1 to n do ror1 e done

let shr e n = for _ = 1 to n do shr1 e done

(* acc := rot_a(acc) ^ rot_b(acc) ^ last(acc), via TA (the input) and
   TB (the running xor) *)
let sigma e ra rb last =
  store32 e ta;
  ror e ra;
  store32 e tb;
  load32 e ta;
  ror e rb;
  xor32_abs e tb;
  store32 e tb;
  load32 e ta;
  (match last with `Ror n -> ror e n | `Shr n -> shr e n);
  xor32_abs e tb

let init_h e =
  Array.iteri
    (fun i word ->
       let v = Int32.to_int word land 0xFFFFFFFF in
       line e "mov #0x%04x, &0x%04x" (v land 0xFFFF) (h0 + (4 * i));
       line e "mov #0x%04x, &0x%04x" ((v lsr 16) land 0xFFFF) (h0 + (4 * i) + 2))
    Sha256.initial_state

let k_table e =
  label e "__sw_k";
  Array.iter
    (fun word ->
       let v = Int32.to_int word land 0xFFFFFFFF in
       line e ".word 0x%04x, 0x%04x" (v land 0xFFFF) ((v lsr 16) land 0xFFFF))
    Sha256.round_constants

(* the eight working variables *)
let v_addr i = va + (4 * i) (* 0=a .. 7=h *)

let sha_blocks e =
  (* __sw_sha_blocks: r7 = data, r6 = block count; clobbers most regs *)
  label e "__sw_sha_blocks";
  label e "__sw_blk";
  (* W[0..15] from big-endian message bytes *)
  line e "mov #0x%04x, r5" w0;
  line e "mov #16, r14";
  label e "__sw_wload";
  line e "mov.b @r7+, r11";
  line e "swpb r11";
  line e "mov.b @r7+, r12";
  line e "bis r12, r11";
  line e "mov.b @r7+, r10";
  line e "swpb r10";
  line e "mov.b @r7+, r12";
  line e "bis r12, r10";
  line e "mov r10, 0(r5)";
  line e "mov r11, 2(r5)";
  line e "add #4, r5";
  line e "dec r14";
  line e "jnz __sw_wload";
  (* schedule W[16..63]; r5 points at W[i] *)
  line e "mov #48, r14";
  label e "__sw_wsched";
  line e "mov -8(r5), r10";
  line e "mov -6(r5), r11";
  sigma e 17 19 (`Shr 10);
  line e "add -28(r5), r10";
  line e "addc -26(r5), r11";
  store32 e t1m;
  line e "mov -60(r5), r10";
  line e "mov -58(r5), r11";
  sigma e 7 18 (`Shr 3);
  add32_abs e t1m;
  line e "add -64(r5), r10";
  line e "addc -62(r5), r11";
  line e "mov r10, 0(r5)";
  line e "mov r11, 2(r5)";
  line e "add #4, r5";
  line e "dec r14";
  line e "jnz __sw_wsched";
  (* a..h := H *)
  for i = 0 to 7 do
    line e "mov &0x%04x, &0x%04x" (h0 + (4 * i)) (v_addr i);
    line e "mov &0x%04x, &0x%04x" (h0 + (4 * i) + 2) (v_addr i + 2)
  done;
  (* 64 rounds; r4 = K pointer, r5 = W pointer *)
  line e "mov #__sw_k, r4";
  line e "mov #0x%04x, r5" w0;
  line e "mov #64, r14";
  label e "__sw_round";
  (* acc = S1(e) *)
  load32 e (v_addr 4);
  sigma e 6 11 (`Ror 25);
  (* + h + K[i] + W[i] *)
  add32_abs e (v_addr 7);
  line e "add @r4+, r10";
  line e "addc @r4+, r11";
  line e "add @r5+, r10";
  line e "addc @r5+, r11";
  store32 e tb;
  (* ch = (e & f) ^ (~e & g) *)
  load32 e (v_addr 4);
  and32_abs e (v_addr 5);
  store32 e ta;
  load32 e (v_addr 4);
  not32 e;
  and32_abs e (v_addr 6);
  xor32_abs e ta;
  (* T1 = ch + (h + S1 + K + W) *)
  add32_abs e tb;
  store32 e t1m;
  (* acc = S0(a) *)
  load32 e (v_addr 0);
  sigma e 2 13 (`Ror 22);
  store32 e tb;
  (* maj = (a&b) ^ (a&c) ^ (b&c) *)
  load32 e (v_addr 0);
  and32_abs e (v_addr 1);
  store32 e ta;
  load32 e (v_addr 0);
  and32_abs e (v_addr 2);
  xor32_abs e ta;
  store32 e ta;
  load32 e (v_addr 1);
  and32_abs e (v_addr 2);
  xor32_abs e ta;
  (* T2 = S0 + maj, kept in the accumulator *)
  add32_abs e tb;
  (* shuffle h<-g<-f<-e and d<-c<-b<-a *)
  for i = 7 downto 5 do
    line e "mov &0x%04x, &0x%04x" (v_addr (i - 1)) (v_addr i);
    line e "mov &0x%04x, &0x%04x" (v_addr (i - 1) + 2) (v_addr i + 2)
  done;
  (* e = d + T1 (via r8/r9 to keep the accumulator) *)
  line e "mov &0x%04x, r8" (v_addr 3);
  line e "mov &0x%04x, r9" (v_addr 3 + 2);
  line e "add &0x%04x, r8" t1m;
  line e "addc &0x%04x, r9" (t1m + 2);
  line e "mov r8, &0x%04x" (v_addr 4);
  line e "mov r9, &0x%04x" (v_addr 4 + 2);
  for i = 3 downto 1 do
    line e "mov &0x%04x, &0x%04x" (v_addr (i - 1)) (v_addr i);
    line e "mov &0x%04x, &0x%04x" (v_addr (i - 1) + 2) (v_addr i + 2)
  done;
  (* a = T1 + T2 *)
  add32_abs e t1m;
  store32 e (v_addr 0);
  line e "dec r14";
  line e "jnz __sw_round";
  (* H += a..h *)
  for i = 0 to 7 do
    load32 e (h0 + (4 * i));
    add32_abs e (v_addr i);
    store32 e (h0 + (4 * i))
  done;
  line e "dec r6";
  line e "jnz __sw_blk";
  line e "ret"

let store_digest e =
  (* __sw_store_digest: r15 = destination; big-endian digest bytes *)
  label e "__sw_store_digest";
  line e "mov #0x%04x, r14" h0;
  line e "mov #8, r13";
  label e "__sw_sd";
  line e "mov 2(r14), r12";
  line e "swpb r12";
  line e "mov.b r12, 0(r15)";
  line e "mov 2(r14), r12";
  line e "mov.b r12, 1(r15)";
  line e "mov 0(r14), r12";
  line e "swpb r12";
  line e "mov.b r12, 2(r15)";
  line e "mov 0(r14), r12";
  line e "mov.b r12, 3(r15)";
  line e "add #4, r14";
  line e "add #4, r15";
  line e "dec r13";
  line e "jnz __sw_sd";
  line e "ret"

let memcpy e =
  (* __sw_memcpy: r14 = src, r15 = dst, r13 = length in bytes *)
  label e "__sw_memcpy";
  line e "tst r13";
  line e "jz __sw_mc_done";
  label e "__sw_mc";
  line e "mov.b @r14+, r12";
  line e "mov.b r12, 0(r15)";
  line e "inc r15";
  line e "dec r13";
  line e "jnz __sw_mc";
  label e "__sw_mc_done";
  line e "ret"

let key_xor e ~pad ~suffix =
  (* stage[0..63] = key ^ pad *)
  line e "mov #0x%04x, r14" key_base;
  line e "mov #0x%04x, r15" stage;
  line e "mov #64, r13";
  label e ("__sw_kx" ^ suffix);
  line e "mov.b @r14+, r12";
  line e "xor.b #0x%02x, r12" pad;
  line e "mov.b r12, 0(r15)";
  line e "inc r15";
  line e "dec r13";
  line e "jnz __sw_kx%s" suffix

let zero_fill e ~addr ~len ~suffix =
  if len > 0 then begin
    line e "mov #0x%04x, r15" addr;
    line e "mov #%d, r13" len;
    label e ("__sw_zf" ^ suffix);
    line e "mov.b #0, 0(r15)";
    line e "inc r15";
    line e "dec r13";
    line e "jnz __sw_zf%s" suffix
  end

let const_byte e addr v = line e "mov.b #0x%02x, &0x%04x" v addr

let length_field e ~at ~bits =
  (* 64-bit big-endian bit count; our messages are < 2^16 bits anyway *)
  for i = 0 to 7 do
    let shift = 8 * (7 - i) in
    const_byte e (at + i) ((bits lsr shift) land 0xFF)
  done

let padded_blocks len = (len + 9 + 63) / 64

let generate (layout : Layout.t) =
  let er_len = layout.Layout.er_max - layout.Layout.er_min + 1 in
  let or_len = layout.Layout.or_max + 2 - layout.Layout.or_min in
  let header = 10 + 1 in
  let msg1 = 64 + challenge_bytes + header + er_len + or_len in
  let blocks1 = padded_blocks msg1 in
  if stage + (blocks1 * 64) > stage_limit then
    failwith "Swatt.generate: attested region too large for the staging area";
  let msg2 = 64 + 32 in
  let blocks2 = padded_blocks msg2 in
  assert (blocks2 = 2);
  let e = { buf = Buffer.create 16384 } in
  line e ".org 0x%04x" rom_base;
  label e "__swatt";
  line e "mov #0x%04x, sp" sw_stack;
  (* --- inner message --- *)
  key_xor e ~pad:0x36 ~suffix:"i";
  (* challenge *)
  line e "mov #0x%04x, r14" challenge_base;
  line e "mov #0x%04x, r15" (stage + 64);
  line e "mov #%d, r13" challenge_bytes;
  line e "call #__sw_memcpy";
  (* header: le16 fields + exec *)
  let hdr = stage + 64 + challenge_bytes in
  List.iteri
    (fun i v ->
       const_byte e (hdr + (2 * i)) (v land 0xFF);
       const_byte e (hdr + (2 * i) + 1) ((v lsr 8) land 0xFF))
    [ layout.Layout.er_min; layout.Layout.er_max; layout.Layout.er_exit;
      layout.Layout.or_min; layout.Layout.or_max ];
  line e "mov.b &0x%04x, r12" exec_reg;
  line e "mov.b r12, &0x%04x" (hdr + 10);
  (* ER *)
  line e "mov #0x%04x, r14" layout.Layout.er_min;
  line e "mov #0x%04x, r15" (hdr + header);
  line e "mov #%d, r13" er_len;
  line e "call #__sw_memcpy";
  (* OR *)
  line e "mov #0x%04x, r14" layout.Layout.or_min;
  line e "mov #0x%04x, r15" (hdr + header + er_len);
  line e "mov #%d, r13" or_len;
  line e "call #__sw_memcpy";
  (* padding *)
  let end1 = stage + msg1 in
  let padded1 = stage + (blocks1 * 64) in
  zero_fill e ~addr:end1 ~len:(padded1 - end1) ~suffix:"1";
  const_byte e end1 0x80;
  length_field e ~at:(padded1 - 8) ~bits:(8 * msg1);
  (* inner hash *)
  init_h e;
  line e "mov #0x%04x, r7" stage;
  line e "mov #%d, r6" blocks1;
  line e "call #__sw_sha_blocks";
  (* --- outer message (reuses the staging buffer) --- *)
  line e "mov #0x%04x, r15" (stage + 64);
  line e "call #__sw_store_digest";
  key_xor e ~pad:0x5C ~suffix:"o";
  let end2 = stage + msg2 in
  let padded2 = stage + (blocks2 * 64) in
  zero_fill e ~addr:end2 ~len:(padded2 - end2) ~suffix:"2";
  const_byte e end2 0x80;
  length_field e ~at:(padded2 - 8) ~bits:(8 * msg2);
  init_h e;
  line e "mov #0x%04x, r7" stage;
  line e "mov #%d, r6" blocks2;
  line e "call #__sw_sha_blocks";
  line e "mov #0x%04x, r15" mac_base;
  line e "call #__sw_store_digest";
  label e "__sw_done";
  line e "jmp __sw_done";
  (* subroutines + constants *)
  sha_blocks e;
  store_digest e;
  memcpy e;
  k_table e;
  Buffer.contents e.buf

(* ------------------------------------------------------------------ *)
(* Installation and execution.                                         *)

type installed = {
  entry : int;
  rom_lo : int;
  rom_hi : int;
  layout : Layout.t;
}

let normalize_key key =
  let key = if String.length key > 64 then Sha256.digest key else key in
  key ^ String.make (64 - String.length key) '\000'

let install ~key layout device =
  let asm = generate layout in
  let image = M.Assemble.assemble (M.Asm_parse.parse asm) in
  let mem = Device.memory device in
  M.Assemble.load image mem;
  let rom_lo, rom_hi =
    match M.Assemble.segment_range image ~base:rom_base with
    | Some (lo, hi) -> (lo, hi)
    | None -> failwith "Swatt.install: empty ROM"
  in
  let cpu = Device.cpu device in
  let key64 = normalize_key key in
  (* the key gate: bytes visible only while the PC executes inside ROM *)
  Memory.attach mem
    { Memory.dev_name = "key-gate";
      dev_lo = key_base; dev_hi = key_base + 63;
      dev_read =
        (fun addr ->
           let pc = Cpu.get_reg cpu Isa.pc in
           if pc >= rom_lo && pc <= rom_hi then
             Some (Char.code key64.[addr - key_base])
           else Some 0);
      dev_write = (fun _ _ -> ());
      dev_tick = Memory.no_tick };
  (* memory-mapped EXEC flag *)
  let monitor = Device.monitor device in
  Memory.attach mem
    { Memory.dev_name = "exec-reg";
      dev_lo = exec_reg; dev_hi = exec_reg;
      dev_read = (fun _ -> Some (if Monitor.exec_flag monitor then 1 else 0));
      dev_write = (fun _ _ -> ());
      dev_tick = Memory.no_tick };
  { entry = M.Assemble.symbol image "__swatt"; rom_lo; rom_hi; layout }

let pad_challenge challenge =
  if String.length challenge > challenge_bytes then
    failwith "Swatt.attest: challenge longer than 32 bytes"
  else challenge ^ String.make (challenge_bytes - String.length challenge) '\000'

let attest installed device ~challenge =
  let mem = Device.memory device in
  let cpu = Device.cpu device in
  Memory.load_image mem ~addr:challenge_base (pad_challenge challenge);
  Cpu.reset_halt cpu;
  Cpu.set_reg cpu Isa.pc installed.entry;
  let monitor = Device.monitor device in
  (match Cpu.run cpu ~max_steps:20_000_000 (Monitor.observe monitor) with
   | Some (Cpu.Self_jump _) -> ()
   | Some (Cpu.Bad_opcode (a, w)) ->
     failwith (Printf.sprintf "SW-Att crashed: opcode 0x%04x at 0x%04x" w a)
   | None -> failwith "SW-Att did not terminate");
  Memory.dump mem ~addr:mac_base ~len:32

let report installed device ~challenge =
  let token = attest installed device ~challenge in
  let l = installed.layout in
  let mem = Device.memory device in
  { Pox.challenge = pad_challenge challenge;
    er_min = l.Layout.er_min; er_max = l.Layout.er_max;
    er_exit = l.Layout.er_exit; or_min = l.Layout.or_min;
    or_max = l.Layout.or_max;
    exec = Monitor.exec_flag (Device.monitor device);
    or_data =
      Memory.dump mem ~addr:l.Layout.or_min
        ~len:(l.Layout.or_max + 2 - l.Layout.or_min);
    token }
