module V = Dialed_core.Verifier

type config = {
  max_entries : int;
  max_bytes : int;
  shards : int;
}

let default_config =
  { max_entries = 4096; max_bytes = 8 * 1024 * 1024; shards = 8 }

type entry = {
  e_accepted : bool;
  e_findings : V.finding list;
  e_steps : int;
}

(* Resident-size accounting is an estimate: key bytes plus a fixed
   per-entry overhead plus each finding's payload strings. It only has
   to be monotone in the real footprint for the byte bound to mean
   anything, not exact. *)
let finding_bytes f =
  let base = 64 in
  match f with
  | V.Bad_instrumentation s | V.Bad_token s | V.Wrong_layout s
  | V.Replay_failed s -> base + String.length s
  | V.Policy_violation { policy; reason } ->
    base + String.length policy + String.length reason
  | V.Oob_access { array; _ } -> base + String.length array
  | V.Log_divergence _ | V.Shadow_stack_violation _ -> base

let entry_bytes key e =
  String.length key + 96
  + List.fold_left (fun acc f -> acc + finding_bytes f) 0 e.e_findings

type t = {
  t_shards : entry Lru.t array;   (* mutex stripes *)
  t_config : config;
}

let create ?(config = default_config) () =
  if config.max_entries < 1 then
    invalid_arg "Memo.create: max_entries must be positive";
  if config.max_bytes < 1 then
    invalid_arg "Memo.create: max_bytes must be positive";
  if config.shards < 1 then invalid_arg "Memo.create: shards must be positive";
  (* per-shard budgets: ceil(total/shards), at least one entry each, so
     the global bounds hold within a one-entry-per-shard rounding slack *)
  let per total = max 1 ((total + config.shards - 1) / config.shards) in
  let mk _ =
    Lru.create ~max_entries:(per config.max_entries)
      ~max_weight:(per config.max_bytes) ~weight:entry_bytes ()
  in
  { t_shards = Array.init config.shards mk; t_config = config }

let config t = t.t_config

let shard_of t key =
  t.t_shards.(Hashtbl.hash key mod Array.length t.t_shards)

type handle = {
  h_t : t;
  h_ns : string;
}

let handle t ~ns = { h_t = t; h_ns = ns }

let find_or_replay h ~digest replay =
  let key = h.h_ns ^ digest in
  Lru.find_or_compute (shard_of h.h_t key) key replay

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

let stats t =
  Array.fold_left
    (fun acc sh ->
       let c = Lru.counters sh in
       { hits = acc.hits + c.Lru.hits;
         misses = acc.misses + c.Lru.misses;
         evictions = acc.evictions + c.Lru.evictions;
         entries = acc.entries + c.Lru.entries;
         bytes = acc.bytes + c.Lru.weight })
    { hits = 0; misses = 0; evictions = 0; entries = 0; bytes = 0 }
    t.t_shards

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let stats_to_json s =
  Printf.sprintf
    "{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d,\
     \"bytes\":%d,\"hit_rate\":%.4f}"
    s.hits s.misses s.evictions s.entries s.bytes (hit_rate s)

let pp_stats ppf s =
  Format.fprintf ppf
    "memo: %d hits, %d misses (%.1f%% hit rate), %d evictions, \
     %d entries resident (%d bytes)"
    s.hits s.misses (hit_rate s *. 100.0) s.evictions s.entries s.bytes
