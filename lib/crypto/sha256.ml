let digest_size = 32
let block_size = 64

(* All 32-bit words live in plain (63-bit) ints, masked after every
   addition/shift: OCaml boxes int32 array elements, so an int32-based
   schedule would allocate on every store. *)
let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5;
     0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
     0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
     0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
     0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3;
     0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5;
     0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let initial_h =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* The context owns its chaining state and a 64-byte partial-block
   buffer: a whole-message hash performs no per-block allocation. *)
type ctx = {
  h : int array;          (* 8 words of chaining state, updated in place *)
  buf : Bytes.t;          (* < 64 bytes awaiting a full block *)
  mutable buf_len : int;
  mutable total_len : int; (* message bytes consumed so far *)
}

let init () =
  { h = Array.copy initial_h; buf = Bytes.create block_size; buf_len = 0;
    total_len = 0 }

let copy ctx =
  { h = Array.copy ctx.h; buf = Bytes.copy ctx.buf; buf_len = ctx.buf_len;
    total_len = ctx.total_len }

let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* The reference compression function: one block [block.(off .. off+63)]
   folded into [h] in place; [w] is caller-provided scratch. *)
let compress h w (block : Bytes.t) off =
  for i = 0 to 15 do
    let j = off + (4 * i) in
    let b n = Char.code (Bytes.unsafe_get block (j + n)) in
    Array.unsafe_set w i
      ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3)
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
       land mask32)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land mask32 land !g) in
    let temp1 =
      (!hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask32
    in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let temp2 = (s0 + maj) land mask32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32; h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32; h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32; h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32; h.(7) <- (h.(7) + !hh) land mask32

(* The SHA-NI kernel (sha256_stubs.c): folds [n] blocks starting at
   [off] into [h] in place. Only called when [accelerated]. *)
external ni_blocks : int array -> Bytes.t -> int -> int -> unit
  = "dialed_sha256_ni_blocks" [@@noalloc]

external ni_available : unit -> bool = "dialed_sha256_ni_available"
  [@@noalloc]

let accelerated = ni_available ()

(* Fold [n] consecutive blocks of [b] from [off] into [h]: in one kernel
   call when [kernel], else block by block through [compress]. The
   schedule scratch is local to the call: a shared one would be
   overwritten by another thread preempted into the same domain. *)
let blocks ~kernel h b off n =
  if kernel then ni_blocks h b off n
  else begin
    let w = Array.make 64 0 in
    for i = 0 to n - 1 do
      compress h w b (off + (block_size * i))
    done
  end

let absorb ~kernel ctx data =
  let len = String.length data in
  let db = Bytes.unsafe_of_string data in
  let pos = ref 0 in
  if ctx.buf_len > 0 then begin
    let take = min (block_size - ctx.buf_len) len in
    Bytes.blit db 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = block_size then begin
      blocks ~kernel ctx.h ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  (* all full blocks straight from the input, no copy *)
  let n = (len - !pos) / block_size in
  if n > 0 then begin
    blocks ~kernel ctx.h db !pos n;
    pos := !pos + (block_size * n)
  end;
  if !pos < len then begin
    Bytes.blit db !pos ctx.buf ctx.buf_len (len - !pos);
    ctx.buf_len <- ctx.buf_len + (len - !pos)
  end;
  ctx.total_len <- ctx.total_len + len;
  ctx

let finish ~kernel ctx =
  (* pad into a local block so the context stays usable (and shareable
     key states are never mutated) *)
  let h = Array.copy ctx.h in
  let total = if ctx.buf_len + 9 <= block_size then block_size else 2 * block_size in
  let block = Bytes.make total '\000' in
  Bytes.blit ctx.buf 0 block 0 ctx.buf_len;
  Bytes.set block ctx.buf_len '\x80';
  let bit_len = 8 * ctx.total_len in
  for i = 0 to 7 do
    Bytes.set block (total - 8 + i)
      (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  blocks ~kernel h block 0 (total / block_size);
  let out = Bytes.create digest_size in
  for i = 0 to 7 do
    let word = h.(i) in
    for j = 0 to 3 do
      Bytes.unsafe_set out ((4 * i) + j)
        (Char.unsafe_chr ((word lsr (8 * (3 - j))) land 0xFF))
    done
  done;
  Bytes.unsafe_to_string out

let update ctx data = absorb ~kernel:accelerated ctx data
let finalize ctx = finish ~kernel:accelerated ctx
let digest msg = finalize (update (init ()) msg)

let reference_digest msg =
  finish ~kernel:false (absorb ~kernel:false (init ()) msg)

(* exported as int32 for the SW-Att code generator's ROM tables *)
let round_constants = Array.map Int32.of_int k
let initial_state = Array.map Int32.of_int initial_h

let hex_digit n =
  Char.unsafe_chr (if n < 10 then Char.code '0' + n else Char.code 'a' + n - 10)

let hex raw =
  let n = String.length raw in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get raw i) in
    Bytes.unsafe_set out (2 * i) (hex_digit (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (hex_digit (c land 0xF))
  done;
  Bytes.unsafe_to_string out
