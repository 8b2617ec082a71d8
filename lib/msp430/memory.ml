type access_kind = Fetch | Read | Write

type access = {
  kind : access_kind;
  addr : int;
  size : Isa.size;
  value : int;
}

type device = {
  dev_name : string;
  dev_lo : int;
  dev_hi : int;
  dev_read : int -> int option;
  dev_write : int -> int -> unit;
  dev_tick : int -> unit;
}

let size_bytes = 0x10000
let page_shift = 8
let n_pages = size_bytes lsr page_shift

let no_tick (_ : int) = ()

(* The per-step trace is a reusable growable buffer of packed ints
   (value:16 | addr:16 | kind:2 | size:1) — recording an access is one
   array store, and a step leaves no garbage behind. *)
type trace = {
  mutable tr_buf : int array;
  mutable tr_len : int;
}

(* The attached decode cache and its word-dirty map covering
   [code_lo..code_hi], one byte per word; an empty range until a cache is
   attached. *)
type code = {
  mutable code_entries : Decode_cache.entry option array;
  mutable code_lo : int;
  mutable code_hi : int;
  mutable code_dirty : Bytes.t;
}

(* [pages] maps each 256-byte page to the devices overlapping it (newest
   first, mirroring the former whole-list search order), so the per-byte
   device lookup is O(1) for the vast majority of addresses no device
   claims. [tickers] is [devices] minus those whose tick is {!no_tick}. *)
type t = {
  bytes : Bytes.t;
  mutable devices : device list;
  mutable tickers : device list;
  pages : device list array;
  trace : trace;
  code : code;
  (* reset-to-snapshot support: one byte per 256-byte page, set on any
     backing write, so a reset only copies back the pages a run touched *)
  page_dirty : Bytes.t;
  mutable snap : Bytes.t;        (* empty until [snapshot] *)
  mutable snap_dirty : Bytes.t;  (* word-dirty map state at snapshot time *)
}

let create () =
  { bytes = Bytes.make size_bytes '\000'; devices = []; tickers = [];
    pages = Array.make n_pages [];
    trace = { tr_buf = Array.make 64 0; tr_len = 0 };
    code = { code_entries = [||]; code_lo = max_int; code_hi = -1;
             code_dirty = Bytes.empty };
    page_dirty = Bytes.make n_pages '\000';
    snap = Bytes.empty; snap_dirty = Bytes.empty }

let trace t = t.trace
let code t = t.code

let mark_dirty_range t lo hi =
  let c = t.code in
  let lo = max (lo land 0xFFFF) c.code_lo
  and hi = min (hi land 0xFFFF) c.code_hi in
  if lo <= hi then
    for s = (lo - c.code_lo) lsr 1 to (hi - c.code_lo) lsr 1 do
      Bytes.unsafe_set c.code_dirty s '\001'
    done

let attach t d =
  t.devices <- d :: t.devices;
  if d.dev_tick != no_tick then t.tickers <- d :: t.tickers;
  for p = (d.dev_lo land 0xFFFF) lsr page_shift
      to (d.dev_hi land 0xFFFF) lsr page_shift do
    t.pages.(p) <- d :: t.pages.(p)
  done;
  (* device-claimed bytes must never be served from the decode cache:
     their reads can have side effects the cache would skip *)
  mark_dirty_range t d.dev_lo d.dev_hi

let rec tick_all n l =
  match l with
  | [] -> ()
  | d :: rest -> d.dev_tick n; tick_all n rest

let tick t n = match t.tickers with [] -> () | l -> tick_all n l

let ticking t = t.tickers <> []

(* Byte-level primitives. Addresses are already masked to 16 bits and
   values to 8; the masks are written out rather than taken from [Word]
   so that they inline. *)

let backing_get t addr = Char.code (Bytes.unsafe_get t.bytes addr)

(* Record a backing write in the page-dirty map and, inside the code
   range, the word-dirty map. *)
let mark_written t addr =
  Bytes.unsafe_set t.page_dirty (addr lsr page_shift) '\001';
  let c = t.code in
  if addr >= c.code_lo && addr <= c.code_hi then
    Bytes.unsafe_set c.code_dirty ((addr - c.code_lo) lsr 1) '\001'

let backing_set t addr v =
  Bytes.unsafe_set t.bytes addr (Char.unsafe_chr (v land 0xFF));
  mark_written t addr

let rec dev_read8 t addr l =
  match l with
  | [] -> backing_get t addr
  | d :: rest ->
    if addr >= d.dev_lo && addr <= d.dev_hi then
      match d.dev_read addr with
      | Some v -> v land 0xFF
      | None -> backing_get t addr
    else dev_read8 t addr rest

let rec dev_write8 addr v l =
  match l with
  | [] -> ()
  | d :: rest ->
    if addr >= d.dev_lo && addr <= d.dev_hi then d.dev_write addr v
    else dev_write8 addr v rest

let read8 t addr =
  match Array.unsafe_get t.pages (addr lsr page_shift) with
  | [] -> backing_get t addr
  | l -> dev_read8 t addr l

(* Mirror device writes into backing RAM so attestation and host dumps
   observe the value last written by the program. *)
let write8 t addr v =
  backing_set t addr v;
  match Array.unsafe_get t.pages (addr lsr page_shift) with
  | [] -> ()
  | l -> dev_write8 addr v l

(* A word address is even, so both of its bytes share one page (and one
   word-dirty slot): a page no device claims takes one 16-bit access. *)
let read16 t addr =
  match Array.unsafe_get t.pages (addr lsr page_shift) with
  | [] -> Bytes.get_uint16_le t.bytes addr
  | _ ->
    (* force low-before-high: device reads can have side effects *)
    let lo = read8 t addr in
    lo lor (read8 t (addr + 1) lsl 8)

let write16 t addr v =
  match Array.unsafe_get t.pages (addr lsr page_shift) with
  | [] -> Bytes.set_uint16_le t.bytes addr v; mark_written t addr
  | _ -> write8 t addr (v land 0xFF); write8 t (addr + 1) (v lsr 8)

let peek8 t addr = backing_get t (addr land 0xFFFF)

let peek16 t addr = Bytes.get_uint16_le t.bytes (addr land 0xFFFE)

let poke8 t addr v = backing_set t (addr land 0xFFFF) v

let poke16 t addr v =
  let addr = addr land 0xFFFE in
  backing_set t addr v;
  backing_set t (addr + 1) (v lsr 8)

let load_image t ~addr s =
  let addr = addr land 0xFFFF in
  let len = String.length s in
  if addr + len <= size_bytes then begin
    Bytes.blit_string s 0 t.bytes addr len;
    if len > 0 then begin
      mark_dirty_range t addr (addr + len - 1);
      for p = addr lsr page_shift to (addr + len - 1) lsr page_shift do
        Bytes.unsafe_set t.page_dirty p '\001'
      done
    end
  end
  else String.iteri (fun i c -> poke8 t (addr + i) (Char.code c)) s

let dump t ~addr ~len = String.init len (fun i -> Bytes.get t.bytes ((addr + i) land 0xFFFF))

(* --- per-step access trace ------------------------------------------ *)

let kind_read = 1 lsl 32
let kind_write = 2 lsl 32
let kind_fetch = 0
let size_word = 1 lsl 34

let record t p =
  let tr = t.trace in
  let n = tr.tr_len in
  if n = Array.length tr.tr_buf then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit tr.tr_buf 0 bigger 0 n;
    tr.tr_buf <- bigger
  end;
  Array.unsafe_set tr.tr_buf n p;
  tr.tr_len <- n + 1

let begin_step t = t.trace.tr_len <- 0

let unpack p =
  { kind = (match (p lsr 32) land 0x3 with 0 -> Fetch | 1 -> Read | _ -> Write);
    addr = (p lsr 16) land 0xFFFF;
    size = (if (p lsr 34) land 1 = 0 then Isa.Byte else Isa.Word);
    value = p land 0xFFFF }

let step_trace t =
  let tr = t.trace in
  List.init tr.tr_len (fun i -> unpack (Array.unsafe_get tr.tr_buf i))

(* --- CPU access ----------------------------------------------------- *)

let read t size addr =
  match size with
  | Isa.Byte ->
    let addr = addr land 0xFFFF in
    let v = read8 t addr in
    record t (v lor (addr lsl 16) lor kind_read);
    v
  | Isa.Word ->
    let addr = addr land 0xFFFE in
    let v = read16 t addr in
    record t (v lor (addr lsl 16) lor kind_read lor size_word);
    v

let write t size addr value =
  match size with
  | Isa.Byte ->
    let addr = addr land 0xFFFF and value = value land 0xFF in
    record t (value lor (addr lsl 16) lor kind_write);
    write8 t addr value
  | Isa.Word ->
    let addr = addr land 0xFFFE and value = value land 0xFFFF in
    record t (value lor (addr lsl 16) lor kind_write lor size_word);
    write16 t addr value

let fetch_word t addr =
  let addr = addr land 0xFFFE in
  let v = read16 t addr in
  record t (v lor (addr lsl 16) lor kind_fetch lor size_word);
  v

(* --- decode cache --------------------------------------------------- *)

let attach_code_cache t c =
  let code = t.code in
  (* [code_lo] is [max_int] until the first attachment *)
  if code.code_lo <> max_int && code.code_entries != Decode_cache.entries c
  then invalid_arg "Memory.attach_code_cache: another cache is attached";
  code.code_entries <- Decode_cache.entries c;
  code.code_dirty <-
    Bytes.make (((Decode_cache.hi c - Decode_cache.lo c) lsr 1) + 1) '\000';
  code.code_lo <- Decode_cache.lo c;
  code.code_hi <- Decode_cache.hi c;
  List.iter (fun d -> mark_dirty_range t d.dev_lo d.dev_hi) t.devices;
  (* a fresh map is exactly the state a reset should restore, so an
     existing snapshot keeps working across a (re)attachment *)
  if Bytes.length t.snap > 0 then t.snap_dirty <- Bytes.copy code.code_dirty

(* --- snapshot / reset ------------------------------------------------ *)

let snapshot t =
  if Bytes.length t.snap = 0 then t.snap <- Bytes.create size_bytes;
  Bytes.blit t.bytes 0 t.snap 0 size_bytes;
  t.snap_dirty <- Bytes.copy t.code.code_dirty;
  Bytes.fill t.page_dirty 0 n_pages '\000'

let reset_to_snapshot t =
  if Bytes.length t.snap = 0 then
    invalid_arg "Memory.reset_to_snapshot: no snapshot taken";
  for p = 0 to n_pages - 1 do
    if Bytes.unsafe_get t.page_dirty p <> '\000' then begin
      Bytes.blit t.snap (p lsl page_shift) t.bytes (p lsl page_shift)
        (1 lsl page_shift);
      Bytes.unsafe_set t.page_dirty p '\000'
    end
  done;
  let dirty = t.code.code_dirty in
  if Bytes.length dirty = Bytes.length t.snap_dirty then
    Bytes.blit t.snap_dirty 0 dirty 0 (Bytes.length dirty);
  t.trace.tr_len <- 0
