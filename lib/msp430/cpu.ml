type halt_reason =
  | Self_jump of int
  | Bad_opcode of int * int

type step_info = {
  pc_before : int;
  instr : Isa.instr option;
  pc_after : int;
  accesses : Memory.access list;
  irq_taken : bool;
  step_cycles : int;
}

type raw = {
  mutable raw_pc_before : int;
  mutable raw_pc_after : int;
  mutable raw_executed : bool;
  mutable raw_control : Isa.control;
  mutable raw_halted : bool;
  mutable raw_irq_taken : bool;
  mutable raw_cycles : int;
}

(* Every field a step writes is an int or an immediate constructor, so a
   step pays no write barrier. The retired instruction is kept as its
   decode-cache slot; [last_instr], a pointer, is written only on the
   byte-level decode path.

   Register indices are written as literals (0 = pc, 1 = sp, 2 = sr):
   under dune's dev profile, [-opaque] makes every [Isa.pc] a load from
   [Isa]'s module block. Every register holds a value in [0..0xFFFF]
   and pc is even; each write below keeps that, and the executors rely
   on it. *)
type t = {
  regs : int array;
  mem : Memory.t;
  code : Memory.code;    (* [mem]'s code view *)
  trace : Memory.trace;  (* [mem]'s access trace *)
  mutable total_cycles : int;
  mutable total_steps : int;
  mutable halt : halt_reason option;
  mutable irq : int option; (* pending vector *)
  raw : raw;
  mutable last_slot : int;  (* slot of the last retired instruction, or -1 *)
  mutable last_instr : Isa.instr;  (* it, when [last_slot = -1] *)
  mutable execs : executors option;
}

(* One executor per slot of [x_cache] (a placeholder where the slot is
   empty). Immutable once compiled. *)
and executors = {
  x_cache : Decode_cache.t;
  x_run : (t -> unit) array;
}

let create mem =
  { regs = Array.make 16 0; mem; code = Memory.code mem;
    trace = Memory.trace mem; total_cycles = 0; total_steps = 0;
    halt = None; irq = None;
    raw = { raw_pc_before = 0; raw_pc_after = 0; raw_executed = false;
            raw_control = Isa.Plain; raw_halted = false;
            raw_irq_taken = false; raw_cycles = 0 };
    last_slot = -1; last_instr = Isa.Reti; execs = None }

let raw t = t.raw

let raw_instr t =
  if t.last_slot < 0 then t.last_instr
  else
    match t.code.Memory.code_entries.(t.last_slot) with
    | Some e -> e.Decode_cache.dc_instr
    | None -> invalid_arg "Cpu.raw_instr: the retired slot is empty"

let reset t =
  Array.fill t.regs 0 16 0;
  t.total_cycles <- 0;
  t.total_steps <- 0;
  t.halt <- None;
  t.irq <- None;
  t.last_slot <- -1;
  t.last_instr <- Isa.Reti;
  let r = t.raw in
  r.raw_pc_before <- 0;
  r.raw_pc_after <- 0;
  r.raw_executed <- false;
  r.raw_control <- Isa.Plain;
  r.raw_halted <- false;
  r.raw_irq_taken <- false;
  r.raw_cycles <- 0

let memory t = t.mem
let cycles t = t.total_cycles
let steps t = t.total_steps
let halted t = t.halt
let reset_halt t = t.halt <- None

let get_reg t r = t.regs.(r)

(* Masks are written out here and below rather than taken from [Word]:
   dune's dev profile compiles with [-opaque], so a call into another
   module is never inlined. *)
let set_reg t r v =
  if r = 0 then t.regs.(r) <- v land 0xFFFE
  else t.regs.(r) <- v land 0xFFFF

(* Status register bits. *)
let c_bit = 0x001
let z_bit = 0x002
let n_bit = 0x004
let gie_bit = 0x008
let v_bit = 0x100
let cnzv = c_bit lor z_bit lor n_bit lor v_bit
let cnz = c_bit lor z_bit lor n_bit

let bit_of_flag f =
  match f with
  | `C -> c_bit | `Z -> z_bit | `N -> n_bit | `GIE -> gie_bit | `V -> v_bit

let get_flag t f = t.regs.(2) land bit_of_flag f <> 0

let set_flag t f b =
  let m = bit_of_flag f in
  let sr = t.regs.(2) in
  t.regs.(2) <- (if b then sr lor m else sr land lnot m)

(* Replace the flags in [which] with [flags], in one store. *)
let set_flags t which flags =
  t.regs.(2) <- (t.regs.(2) land lnot which) lor flags

let carry t = t.regs.(2) land c_bit

let request_irq t ~vector = t.irq <- Some vector
let irq_pending t = t.irq <> None

(* An operation of size [Byte] or [Word] works under value mask [m] and
   sign bit [s]. *)
let mask_of size = match size with Isa.Byte -> 0xFF | Isa.Word -> 0xFFFF
let sign_of size = match size with Isa.Byte -> 0x80 | Isa.Word -> 0x8000

let nz m s r =
  (if r land s <> 0 then n_bit else 0) lor (if r land m = 0 then z_bit else 0)

(* Effective address of a memory source operand, applying auto-increment;
   -1 for operands that are not memory (register / immediate). *)
let src_ea t size s =
  match s with
  | Isa.Sreg _ | Isa.Simm _ -> -1
  | Isa.Sindexed (x, r) -> (t.regs.(r) + x) land 0xFFFF
  | Isa.Sabsolute a -> a land 0xFFFF
  | Isa.Sindirect r -> t.regs.(r)
  | Isa.Sindirect_inc r ->
    let ea = t.regs.(r) in
    let inc =
      match size with
      | Isa.Byte when r <> 0 && r <> 1 -> 1
      | Isa.Byte | Isa.Word -> 2
    in
    t.regs.(r) <- (ea + inc) land 0xFFFF;
    ea

(* A source operand is a register, memory at [ea], or a constant.
   Single-operand instructions also write their result back through it;
   a constant's result is discarded. *)
let read_src t size m s ea =
  match s with
  | Isa.Sreg r -> t.regs.(r) land m
  | Isa.Simm n -> n land m
  | Isa.Sindexed _ | Isa.Sabsolute _ | Isa.Sindirect _ | Isa.Sindirect_inc _ ->
    Memory.read t.mem size ea

let src_value t size m s = read_src t size m s (src_ea t size s)

let write_src t size m s ea v =
  match s with
  | Isa.Sreg r -> set_reg t r (v land m)
  | Isa.Simm _ -> ()
  | Isa.Sindexed _ | Isa.Sabsolute _ | Isa.Sindirect _ | Isa.Sindirect_inc _ ->
    Memory.write t.mem size ea v

let dst_ea t d =
  match d with
  | Isa.Dreg _ -> -1
  | Isa.Dindexed (x, r) -> (t.regs.(r) + x) land 0xFFFF
  | Isa.Dabsolute a -> a land 0xFFFF

let read_dst t size m d ea =
  match d with
  | Isa.Dreg r -> t.regs.(r) land m
  | Isa.Dindexed _ | Isa.Dabsolute _ -> Memory.read t.mem size ea

let write_dst t size m d ea v =
  match d with
  | Isa.Dreg r ->
    (* Byte writes to a register clear the high byte. *)
    set_reg t r (v land m)
  | Isa.Dindexed _ | Isa.Dabsolute _ -> Memory.write t.mem size ea v

let add t m s a b carry_in =
  let sum = a + b + carry_in in
  let r = sum land m in
  set_flags t cnzv
    ((if sum > m then c_bit else 0)
     lor (if a land s = b land s && r land s <> a land s then v_bit else 0)
     lor nz m s r);
  r

(* dst - src = dst + ~src + 1; SUBC uses the carry instead of the 1. *)
let sub t m s src dst carry_in =
  let sum = dst + (lnot src land m) + carry_in in
  let r = sum land m in
  set_flags t cnzv
    ((if sum > m then c_bit else 0)
     lor (if dst land s <> src land s && r land s <> dst land s then v_bit
          else 0)
     lor nz m s r);
  r

(* Decimal add digit by digit; V is left as it was. *)
let dadd t m s a b carry_in =
  let digits = if m = 0xFF then 2 else 4 in
  let carry = ref carry_in and acc = ref 0 in
  for i = 0 to digits - 1 do
    let d = ((a lsr (4 * i)) land 0xF) + ((b lsr (4 * i)) land 0xF) + !carry in
    if d > 9 then begin
      acc := !acc lor ((d - 10) lsl (4 * i));
      carry := 1
    end
    else begin
      acc := !acc lor (d lsl (4 * i));
      carry := 0
    end
  done;
  let r = !acc in
  set_flags t cnz ((if !carry = 1 then c_bit else 0) lor nz m s r);
  r

(* BIT, XOR, AND: N and Z from the result, C = result non-zero. *)
let logic_flags t m s r v =
  set_flags t cnzv (nz m s r lor (if r land m <> 0 then c_bit else 0) lor v)

let push t size v =
  let sp = (t.regs.(1) - 2) land 0xFFFF in
  t.regs.(1) <- sp;
  (* Byte pushes still consume a full word slot. *)
  Memory.write t.mem size sp v

let exec_two t op size src dst =
  let m = mask_of size and s = sign_of size in
  let sv = src_value t size m src in
  let ea = dst_ea t dst in
  match op with
  | Isa.MOV -> write_dst t size m dst ea sv
  | Isa.ADD ->
    let dv = read_dst t size m dst ea in
    write_dst t size m dst ea (add t m s dv sv 0)
  | Isa.ADDC ->
    let dv = read_dst t size m dst ea in
    write_dst t size m dst ea (add t m s dv sv (carry t))
  | Isa.SUB ->
    let dv = read_dst t size m dst ea in
    write_dst t size m dst ea (sub t m s sv dv 1)
  | Isa.SUBC ->
    let dv = read_dst t size m dst ea in
    write_dst t size m dst ea (sub t m s sv dv (carry t))
  | Isa.CMP ->
    let dv = read_dst t size m dst ea in
    ignore (sub t m s sv dv 1 : int)
  | Isa.DADD ->
    let dv = read_dst t size m dst ea in
    write_dst t size m dst ea (dadd t m s dv sv (carry t))
  | Isa.BIT ->
    let dv = read_dst t size m dst ea in
    logic_flags t m s (dv land sv) 0
  | Isa.BIC ->
    let dv = read_dst t size m dst ea in
    write_dst t size m dst ea (dv land lnot sv)
  | Isa.BIS ->
    let dv = read_dst t size m dst ea in
    write_dst t size m dst ea (dv lor sv)
  | Isa.XOR ->
    let dv = read_dst t size m dst ea in
    let r = (dv lxor sv) land m in
    logic_flags t m s r (if sv land s <> 0 && dv land s <> 0 then v_bit else 0);
    write_dst t size m dst ea r
  | Isa.AND ->
    let dv = read_dst t size m dst ea in
    let r = dv land sv land m in
    logic_flags t m s r 0;
    write_dst t size m dst ea r

(* RRC and RRA: shift right one, the new top bit from the carry (RRC) or
   the old top bit (RRA). *)
let rotate t size src ~through_carry =
  let m = mask_of size and s = sign_of size in
  let ea = src_ea t size src in
  let v = read_src t size m src ea in
  let top =
    if through_carry then (if carry t <> 0 then s else 0) else v land s
  in
  let r = top lor (v lsr 1) in
  set_flags t cnzv ((if v land 1 = 1 then c_bit else 0) lor nz m s r);
  write_src t size m src ea r

let exec_one t op size src =
  match op with
  | Isa.RRC -> rotate t size src ~through_carry:true
  | Isa.RRA -> rotate t size src ~through_carry:false
  | Isa.SWPB ->
    let ea = src_ea t Isa.Word src in
    let v = read_src t Isa.Word 0xFFFF src ea in
    write_src t Isa.Word 0xFFFF src ea
      (((v land 0xFF) lsl 8) lor ((v lsr 8) land 0xFF))
  | Isa.SXT ->
    let ea = src_ea t Isa.Word src in
    let v = read_src t Isa.Word 0xFFFF src ea in
    let r =
      if v land 0x80 <> 0 then (v lor 0xFF00) land 0xFFFF else v land 0xFF
    in
    logic_flags t 0xFFFF 0x8000 r 0;
    write_src t Isa.Word 0xFFFF src ea r
  | Isa.PUSH -> push t size (src_value t size (mask_of size) src)
  | Isa.CALL ->
    let dest = src_value t Isa.Word 0xFFFF src in
    push t Isa.Word t.regs.(0);
    set_reg t 0 dest

let cond_taken t c =
  let sr = t.regs.(2) in
  match c with
  | Isa.JNE -> sr land z_bit = 0
  | Isa.JEQ -> sr land z_bit <> 0
  | Isa.JNC -> sr land c_bit = 0
  | Isa.JC -> sr land c_bit <> 0
  | Isa.JN -> sr land n_bit <> 0
  | Isa.JGE -> (sr land n_bit <> 0) = (sr land v_bit <> 0)
  | Isa.JL -> (sr land n_bit <> 0) <> (sr land v_bit <> 0)
  | Isa.JMP -> true

let vector_irq t vector =
  push t Isa.Word t.regs.(0);
  push t Isa.Word t.regs.(2);
  set_flags t gie_bit 0;
  set_reg t 0 (Memory.read t.mem Isa.Word vector)

(* Execute [instr] with pc already advanced to the fall-through address.
   A taken jump targets [fall-through + 2*off]; reading the fall-through
   back out of the (masked) pc register is congruent mod 2^16 to the old
   unmasked arithmetic, and [set_reg] masks again, so results agree. *)
let exec_instr t instr =
  match instr with
  | Isa.Two (op, size, src, dst) -> exec_two t op size src dst
  | Isa.One (op, size, src) -> exec_one t op size src
  | Isa.Jump (c, off) ->
    if cond_taken t c then set_reg t 0 (t.regs.(0) + 2 * off)
  | Isa.Reti ->
    let sr_v = Memory.read t.mem Isa.Word t.regs.(1) in
    set_reg t 1 (t.regs.(1) + 2);
    let pc_v = Memory.read t.mem Isa.Word t.regs.(1) in
    set_reg t 1 (t.regs.(1) + 2);
    set_reg t 2 sr_v;
    set_reg t 0 pc_v

(* ------------------------------------------------------------------ *)
(* Specialized executors. [compile] turns each decoded slot into a
   closure that runs it with its operation, size and operand modes
   resolved in advance: constants, masks, absolute addresses and jump
   targets are computed once, and the closure body calls the same flag
   helpers as [exec_two]. Like [exec_instr], an executor runs with pc
   already at the fall-through. Register fields come from a 4-bit
   decode, so the [unsafe] accesses stay inside the 16 registers.
   A form the bundled apps rarely run is not specialized: its executor
   calls [exec_instr], which stays the reference semantics. Replaying
   each app once, such forms are 3 of syringe-pump's 1,685 steps (rrc,
   in the multiply helper) and none of the other apps' steps. *)

(* The source operand's value, read as [src_value] reads it (with its
   auto-increment). *)
let src_reader size m src : t -> int =
  match src with
  | Isa.Simm n -> let v = n land m in fun _ -> v
  | Isa.Sreg r when m = 0xFFFF -> fun t -> Array.unsafe_get t.regs r
  | Isa.Sreg r -> fun t -> Array.unsafe_get t.regs r land m
  | Isa.Sindexed (x, r) ->
    fun t ->
      Memory.read t.mem size ((Array.unsafe_get t.regs r + x) land 0xFFFF)
  | Isa.Sabsolute a ->
    let a = a land 0xFFFF in
    fun t -> Memory.read t.mem size a
  | Isa.Sindirect r ->
    fun t -> Memory.read t.mem size (Array.unsafe_get t.regs r)
  | Isa.Sindirect_inc r ->
    let inc = match size with Isa.Byte when r <> 0 && r <> 1 -> 1 | _ -> 2 in
    fun t ->
      let ea = Array.unsafe_get t.regs r in
      Array.unsafe_set t.regs r ((ea + inc) land 0xFFFF);
      Memory.read t.mem size ea

(* Format I into register [d] (not pc). The source is read before the
   destination, as in [exec_two], so [op @rN+, rN] sees the increment. *)
let two_to_reg op m s get d : t -> unit =
  match op with
  | Isa.MOV -> fun t -> Array.unsafe_set t.regs d (get t)
  | Isa.ADD ->
    fun t ->
      let sv = get t in
      let dv = Array.unsafe_get t.regs d land m in
      Array.unsafe_set t.regs d (add t m s dv sv 0)
  | Isa.ADDC ->
    fun t ->
      let sv = get t in
      let dv = Array.unsafe_get t.regs d land m in
      Array.unsafe_set t.regs d (add t m s dv sv (carry t))
  | Isa.SUB ->
    fun t ->
      let sv = get t in
      let dv = Array.unsafe_get t.regs d land m in
      Array.unsafe_set t.regs d (sub t m s sv dv 1)
  | Isa.SUBC ->
    fun t ->
      let sv = get t in
      let dv = Array.unsafe_get t.regs d land m in
      Array.unsafe_set t.regs d (sub t m s sv dv (carry t))
  | Isa.CMP ->
    fun t ->
      let sv = get t in
      ignore (sub t m s sv (Array.unsafe_get t.regs d land m) 1 : int)
  | Isa.DADD ->
    (* a digit above 9 can carry past the operand width, so mask *)
    fun t ->
      let sv = get t in
      let dv = Array.unsafe_get t.regs d land m in
      Array.unsafe_set t.regs d (dadd t m s dv sv (carry t) land m)
  | Isa.BIT ->
    fun t ->
      let sv = get t in
      logic_flags t m s (Array.unsafe_get t.regs d land m land sv) 0
  | Isa.BIC ->
    fun t ->
      let sv = get t in
      Array.unsafe_set t.regs d (Array.unsafe_get t.regs d land m land lnot sv)
  | Isa.BIS ->
    fun t ->
      let sv = get t in
      Array.unsafe_set t.regs d ((Array.unsafe_get t.regs d land m) lor sv)
  | Isa.XOR ->
    fun t ->
      let sv = get t in
      let dv = Array.unsafe_get t.regs d land m in
      let r = dv lxor sv in
      logic_flags t m s r
        (if sv land s <> 0 && dv land s <> 0 then v_bit else 0);
      Array.unsafe_set t.regs d r
  | Isa.AND ->
    fun t ->
      let sv = get t in
      let r = Array.unsafe_get t.regs d land m land sv in
      logic_flags t m s r 0;
      Array.unsafe_set t.regs d r

let compile_two instr op size src dst : t -> unit =
  let m = mask_of size and s = sign_of size in
  match op, src, dst with
  | Isa.MOV, _, Isa.Dreg 0 ->
    let get = src_reader size m src in
    fun t -> Array.unsafe_set t.regs 0 (get t land 0xFFFE)
  | _, _, Isa.Dreg d when d <> 0 -> two_to_reg op m s (src_reader size m src) d
  | Isa.MOV, _, Isa.Dindexed (x, r) ->
    let get = src_reader size m src in
    fun t ->
      let sv = get t in
      Memory.write t.mem size ((Array.unsafe_get t.regs r + x) land 0xFFFF) sv
  | Isa.MOV, _, Isa.Dabsolute a ->
    let get = src_reader size m src and a = a land 0xFFFF in
    fun t -> Memory.write t.mem size a (get t)
  | _ -> fun t -> exec_instr t instr

let compile_jump c target : t -> unit =
  match c with
  | Isa.JMP -> fun t -> Array.unsafe_set t.regs 0 target
  | Isa.JNE ->
    fun t ->
      if Array.unsafe_get t.regs 2 land z_bit = 0 then
        Array.unsafe_set t.regs 0 target
  | Isa.JEQ ->
    fun t ->
      if Array.unsafe_get t.regs 2 land z_bit <> 0 then
        Array.unsafe_set t.regs 0 target
  | Isa.JNC ->
    fun t ->
      if Array.unsafe_get t.regs 2 land c_bit = 0 then
        Array.unsafe_set t.regs 0 target
  | Isa.JC ->
    fun t ->
      if Array.unsafe_get t.regs 2 land c_bit <> 0 then
        Array.unsafe_set t.regs 0 target
  | Isa.JN ->
    fun t ->
      if Array.unsafe_get t.regs 2 land n_bit <> 0 then
        Array.unsafe_set t.regs 0 target
  | Isa.JGE ->
    fun t ->
      let sr = Array.unsafe_get t.regs 2 in
      if (sr land n_bit <> 0) = (sr land v_bit <> 0) then
        Array.unsafe_set t.regs 0 target
  | Isa.JL ->
    fun t ->
      let sr = Array.unsafe_get t.regs 2 in
      if (sr land n_bit <> 0) <> (sr land v_bit <> 0) then
        Array.unsafe_set t.regs 0 target

let compile_entry (e : Decode_cache.entry) : t -> unit =
  let instr = e.Decode_cache.dc_instr in
  match instr with
  | Isa.Two (op, size, src, dst) -> compile_two instr op size src dst
  | Isa.Jump (c, off) ->
    (* [exec_instr]'s target, from the slot's known fall-through *)
    compile_jump c ((e.Decode_cache.dc_next + 2 * off) land 0xFFFE)
  | Isa.One (Isa.PUSH, size, src) ->
    let get = src_reader size (mask_of size) src in
    fun t -> push t size (get t)
  | Isa.One (Isa.CALL, _, src) ->
    let get = src_reader Isa.Word 0xFFFF src in
    fun t ->
      let dest = get t in
      push t Isa.Word (Array.unsafe_get t.regs 0);
      Array.unsafe_set t.regs 0 (dest land 0xFFFE)
  | Isa.One ((Isa.RRC | Isa.RRA | Isa.SWPB | Isa.SXT), _, _) | Isa.Reti ->
    fun t -> exec_instr t instr

let empty_slot (_ : t) = invalid_arg "Cpu: executor of an empty slot"

let compile dc =
  { x_cache = dc;
    x_run =
      Array.map
        (fun e -> match e with Some e -> compile_entry e | None -> empty_slot)
        (Decode_cache.entries dc) }

(* A memory keeps the first table attached to it, so from here on the
   code view's slots are [x]'s slots and [fused] may index [x_run] by
   them unchecked. *)
let attach_executors t x =
  Memory.attach_code_cache t.mem x.x_cache;
  t.execs <- Some x

(* The cached decode of [pc], when the code view may serve it: [pc] is
   even, inside the cached range, and no word the encoding covers has
   been dirtied (see {!Memory.code}). Returns the table's own [Some]. *)
let cached t pc =
  let c = t.code in
  if pc < c.Memory.code_lo || pc > c.Memory.code_hi || pc land 1 <> 0 then None
  else begin
    let s = (pc - c.Memory.code_lo) lsr 1 in
    match Array.unsafe_get c.Memory.code_entries s with
    | None -> None
    | Some e as hit ->
      let d = c.Memory.code_dirty in
      if
        Bytes.unsafe_get d s = '\000'
        && (e.Decode_cache.dc_len <= 2
            || (Bytes.unsafe_get d (s + 1) = '\000'
                && (e.Decode_cache.dc_len <= 4
                    || Bytes.unsafe_get d (s + 2) = '\000')))
      then hit
      else None
  end

let finish_step t r step_cycles =
  r.raw_cycles <- step_cycles;
  t.total_cycles <- t.total_cycles + step_cycles;
  t.total_steps <- t.total_steps + 1;
  Memory.tick t.mem step_cycles

(* One step no executor serves: a due interrupt is vectored, or the
   instruction is fetched and decoded from its bytes. *)
let step_decoded t =
  let r = t.raw in
  let pc_before = t.regs.(0) in
  r.raw_pc_before <- pc_before;
  r.raw_executed <- false;
  r.raw_control <- Isa.Plain;
  r.raw_halted <- false;
  r.raw_irq_taken <- false;
  match t.irq with
  | Some vector when t.regs.(2) land gie_bit <> 0 ->
    t.irq <- None;
    vector_irq t vector;
    r.raw_pc_after <- t.regs.(0);
    r.raw_irq_taken <- true;
    finish_step t r 6
  | Some _ | None ->
    match Decode.decode ~get_word:(Memory.fetch_word t.mem) pc_before with
    | exception Decode.Undecodable (a, w) ->
      t.halt <- Some (Bad_opcode (a, w));
      r.raw_halted <- true;
      r.raw_pc_after <- pc_before;
      r.raw_cycles <- 0
    | instr, next ->
      set_reg t 0 next;
      exec_instr t instr;
      t.last_slot <- -1;
      t.last_instr <- instr;
      r.raw_executed <- true;
      r.raw_control <- Isa.control instr;
      let pc_after = t.regs.(0) in
      r.raw_pc_after <- pc_after;
      if pc_after = pc_before then begin
        t.halt <- Some (Self_jump pc_before);
        r.raw_halted <- true
      end;
      finish_step t r (Isa.cycles instr)

(* The fused loop: run executor-served steps back to back, writing the
   step record only for the step that stops the run. A step that cannot
   be served this way (an IRQ is due, or the slot is uncached or dirty)
   is one {!step_decoded}, which writes its own record and ends the run.
   A top-level function of its arguments, so a run allocates nothing. *)
let rec fused t x ticking budget =
  let regs = t.regs in
  let pc = Array.unsafe_get regs 0 in
  let irq_due =
    match t.irq with
    | None -> false
    | Some _ -> Array.unsafe_get regs 2 land gie_bit <> 0
  in
  match if irq_due then None else cached t pc with
  | None -> step_decoded t
  | Some e ->
    let s = (pc - t.code.Memory.code_lo) lsr 1 in
    Array.unsafe_set regs 0 e.Decode_cache.dc_next;
    (Array.unsafe_get x.x_run s) t;
    let cycles = e.Decode_cache.dc_cycles in
    t.total_cycles <- t.total_cycles + cycles;
    t.total_steps <- t.total_steps + 1;
    if ticking then Memory.tick t.mem cycles;
    let pc_after = Array.unsafe_get regs 0 in
    if t.trace.Memory.tr_len = 0 && pc_after <> pc && t.total_steps < budget
    then fused t x ticking budget
    else begin
      let r = t.raw in
      r.raw_pc_before <- pc;
      r.raw_pc_after <- pc_after;
      r.raw_executed <- true;
      r.raw_control <- e.Decode_cache.dc_control;
      r.raw_irq_taken <- false;
      r.raw_cycles <- cycles;
      t.last_slot <- s;
      if pc_after = pc then begin
        t.halt <- Some (Self_jump pc);
        r.raw_halted <- true
      end
      else r.raw_halted <- false
    end

let run_unobserved t ~budget =
  (match t.halt with
   | Some _ -> invalid_arg "Cpu.step: already halted"
   | None -> ());
  t.trace.Memory.tr_len <- 0;
  match t.execs with
  | Some x -> fused t x (Memory.ticking t.mem) budget
  | None -> step_decoded t

let step_raw t = run_unobserved t ~budget:(t.total_steps + 1)

let step t =
  step_raw t;
  let r = t.raw in
  { pc_before = r.raw_pc_before;
    instr = (if r.raw_executed then Some (raw_instr t) else None);
    pc_after = r.raw_pc_after;
    accesses = Memory.step_trace t.mem;
    irq_taken = r.raw_irq_taken;
    step_cycles = r.raw_cycles }

let run t ~max_steps f =
  let rec loop n =
    match t.halt with
    | Some h -> Some h
    | None ->
      if n >= max_steps then None
      else begin
        f (step t);
        loop (n + 1)
      end
  in
  loop 0
