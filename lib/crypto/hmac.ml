let block_size = Sha256.block_size

let normalize_key key =
  let key =
    if String.length key > block_size then Sha256.digest key else key
  in
  key ^ String.make (block_size - String.length key) '\000'

let xor_pad key byte =
  String.map (fun c -> Char.chr (Char.code c lxor byte)) key

(* A precomputed key: the SHA-256 states after absorbing the ipad- and
   opad-XORed key block. Each MAC then costs two context copies instead
   of re-padding and re-hashing the 64-byte key block twice. The states
   themselves are never mutated after construction, so one [key_state]
   is safe to share read-only across domains. *)
type key_state = {
  ks_inner : Sha256.ctx;
  ks_outer : Sha256.ctx;
}

let key_state ~key =
  let key = normalize_key key in
  { ks_inner = Sha256.update (Sha256.init ()) (xor_pad key 0x36);
    ks_outer = Sha256.update (Sha256.init ()) (xor_pad key 0x5C) }

let mac_parts_with ks parts =
  let inner = List.fold_left Sha256.update (Sha256.copy ks.ks_inner) parts in
  let outer = Sha256.update (Sha256.copy ks.ks_outer) (Sha256.finalize inner) in
  Sha256.finalize outer

let mac_with ks msg = mac_parts_with ks [ msg ]

let mac_parts ~key parts = mac_parts_with (key_state ~key) parts

let mac ~key msg = mac_parts ~key [ msg ]

(* OR of the XORs of every byte pair: the loop never exits early, so
   its time does not depend on where the strings differ *)
let equal a b =
  let n = String.length a in
  n = String.length b
  && begin
    let diff = ref 0 in
    for i = 0 to n - 1 do
      diff :=
        !diff
        lor (Char.code (String.unsafe_get a i)
             lxor Char.code (String.unsafe_get b i))
    done;
    !diff = 0
  end

let verify ~key ~msg ~tag = equal (mac ~key msg) tag

let hex = Sha256.hex
