type entry = {
  dc_instr : Isa.instr;
  dc_next : int;
  dc_len : int;
  dc_cycles : int;
  dc_control : Isa.control;
}

type t = {
  lo : int;
  hi : int;
  entries : entry option array; (* indexed by (pc - lo) lsr 1 *)
}

let lo t = t.lo
let hi t = t.hi
let entries t = t.entries

let build ?(lo = 0) ?(hi = 0xFFFF) ~get_word () =
  if lo land 1 <> 0 || lo < 0 || hi > 0xFFFF || lo > hi then
    invalid_arg "Decode_cache.build: bad range";
  let slots = ((hi - lo) lsr 1) + 1 in
  let entries = Array.make slots None in
  for slot = 0 to slots - 1 do
    let addr = lo + (2 * slot) in
    match Decode.decode ~get_word addr with
    | exception Decode.Undecodable _ -> ()
    | instr, next ->
      let len = next - addr in
      (* keep the byte-level fetch path for an instruction whose encoding
         leaves the cached range (or wraps past 0xFFFF), so the dirty map
         always covers every cached word and wraps stay bit-exact *)
      if addr + len - 1 <= hi then
        (* pre-mask the fall-through pc exactly as [Cpu.set_reg] would *)
        entries.(slot) <-
          Some { dc_instr = instr; dc_next = next land 0xFFFE; dc_len = len;
                 dc_cycles = Isa.cycles instr; dc_control = Isa.control instr }
  done;
  { lo; hi; entries }
