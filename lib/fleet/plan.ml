module C = Dialed_core

type t = {
  fingerprint : string;
  vplan : C.Verifier.plan;
}

let of_built ?key ?policies ?max_steps ?audit built =
  { fingerprint = C.Pipeline.fingerprint built;
    vplan = C.Verifier.plan ?key ?policies ?max_steps ?audit built }

let audit_report t = C.Verifier.plan_audit t.vplan

let vplan t = t.vplan
let fingerprint t = t.fingerprint

(* ------------------------------------------------------------------ *)
(* Keyed cache. Every structure here is touched under [mutex] only, so
   the cache itself is safe to share between domains (the plans it hands
   out are immutable).                                                  *)

type cache = {
  capacity : int;
  mutex : Mutex.t;
  built_cond : Condition.t;         (* an in-flight build finished/failed *)
  table : (string, t) Hashtbl.t;
  stamps : (string, int) Hashtbl.t; (* key -> last-use tick, for LRU *)
  building : (string, unit) Hashtbl.t;  (* builds currently in flight *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable audits : int;             (* static audits actually executed *)
  mutable evictions : int;
}

let cache ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Plan.cache: capacity must be positive";
  { capacity; mutex = Mutex.create (); built_cond = Condition.create ();
    table = Hashtbl.create 16; stamps = Hashtbl.create 16;
    building = Hashtbl.create 4; tick = 0; hits = 0; misses = 0; audits = 0;
    evictions = 0 }

let cache_key ~key fingerprint =
  fingerprint ^ ":" ^ Dialed_crypto.Sha256.hex (Dialed_crypto.Sha256.digest key)

(* must hold [cache.mutex] *)
let touch cache k =
  cache.tick <- cache.tick + 1;
  Hashtbl.replace cache.stamps k cache.tick

(* must hold [cache.mutex]; stamps are unique, so the victim is too *)
let evict_lru cache =
  let victim = ref None in
  Hashtbl.iter
    (fun k _ ->
       let s = Option.value ~default:0 (Hashtbl.find_opt cache.stamps k) in
       match !victim with
       | Some (_, vs) when vs <= s -> ()
       | _ -> victim := Some (k, s))
    cache.table;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove cache.table k;
    Hashtbl.remove cache.stamps k;
    cache.evictions <- cache.evictions + 1
  | None -> ()

let find_or_build cache ?(key = Dialed_apex.Device.default_key) ?policies
    ?max_steps ?audit built =
  let k = cache_key ~key (C.Pipeline.fingerprint built) in
  Mutex.lock cache.mutex;
  let rec lookup () =
    match Hashtbl.find_opt cache.table k with
    | Some plan ->
      cache.hits <- cache.hits + 1;
      touch cache k;
      Mutex.unlock cache.mutex;
      plan
    | None ->
      if Hashtbl.mem cache.building k then begin
        (* another domain is already building this exact plan: wait for
           it instead of duplicating the build (and its audit) *)
        Condition.wait cache.built_cond cache.mutex;
        lookup ()
      end
      else begin
        cache.misses <- cache.misses + 1;
        Hashtbl.add cache.building k ();
        Mutex.unlock cache.mutex;
        (* build outside the lock: plan construction resolves the whole
           annotation table (and runs the static audit, when armed) and
           must not serialize unrelated lookups *)
        match of_built ~key ?policies ?max_steps ?audit built with
        | exception e ->
          Mutex.lock cache.mutex;
          Hashtbl.remove cache.building k;
          Condition.broadcast cache.built_cond;
          Mutex.unlock cache.mutex;
          raise e
        | plan ->
          Mutex.lock cache.mutex;
          Hashtbl.remove cache.building k;
          (* count the audit only now that the build (and therefore the
             audit inside it) actually ran to completion; selective
             builds are always audited, armed or not *)
          (if audit <> None || built.C.Pipeline.selective then
             cache.audits <- cache.audits + 1);
          if not (Hashtbl.mem cache.table k) then begin
            if Hashtbl.length cache.table >= cache.capacity then
              evict_lru cache;
            Hashtbl.add cache.table k plan
          end;
          touch cache k;
          Condition.broadcast cache.built_cond;
          Mutex.unlock cache.mutex;
          plan
      end
  in
  lookup ()

let cache_stats cache =
  Mutex.lock cache.mutex;
  let s = (cache.hits, cache.misses) in
  Mutex.unlock cache.mutex;
  s

let cache_audits cache =
  Mutex.lock cache.mutex;
  let n = cache.audits in
  Mutex.unlock cache.mutex;
  n

let cache_size cache =
  Mutex.lock cache.mutex;
  let n = Hashtbl.length cache.table in
  Mutex.unlock cache.mutex;
  n

type cache_counters = {
  cc_hits : int;
  cc_misses : int;
  cc_evictions : int;
  cc_resident : int;
  cc_audits : int;
}

let cache_counters cache =
  Mutex.lock cache.mutex;
  let c =
    { cc_hits = cache.hits; cc_misses = cache.misses;
      cc_evictions = cache.evictions;
      cc_resident = Hashtbl.length cache.table; cc_audits = cache.audits }
  in
  Mutex.unlock cache.mutex;
  c

let cache_counters_to_json c =
  Printf.sprintf
    "{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"resident\":%d,\
     \"audits\":%d}"
    c.cc_hits c.cc_misses c.cc_evictions c.cc_resident c.cc_audits

let pp_cache_counters ppf c =
  Format.fprintf ppf
    "plans: %d hits, %d misses, %d evictions, %d resident, %d audits"
    c.cc_hits c.cc_misses c.cc_evictions c.cc_resident c.cc_audits
