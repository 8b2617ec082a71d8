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
(* Keyed cache: one [Lru] of plans (immutable, so safe to hand out to
   any domain) plus the count of audits its builds ran.                 *)

type cache = {
  plans : t Lru.t;
  audits : int Atomic.t;            (* static audits actually executed *)
}

let cache ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Plan.cache: capacity must be positive";
  { plans = Lru.create ~max_entries:capacity (); audits = Atomic.make 0 }

let cache_key ~key fingerprint =
  fingerprint ^ ":" ^ Dialed_crypto.Sha256.hex (Dialed_crypto.Sha256.digest key)

let find_or_build cache ?(key = Dialed_apex.Device.default_key) ?policies
    ?max_steps ?audit built =
  let k = cache_key ~key (C.Pipeline.fingerprint built) in
  fst
    (Lru.find_or_compute cache.plans k (fun () ->
         let plan = of_built ~key ?policies ?max_steps ?audit built in
         (* count the audit only once the build, and so the audit inside
            it, ran to completion; selective builds are always audited,
            armed or not *)
         if audit <> None || built.C.Pipeline.selective then
           Atomic.incr cache.audits;
         plan))

type cache_counters = {
  cc_hits : int;
  cc_misses : int;
  cc_evictions : int;
  cc_resident : int;
  cc_audits : int;
}

let cache_counters cache =
  let c = Lru.counters cache.plans in
  { cc_hits = c.Lru.hits; cc_misses = c.Lru.misses;
    cc_evictions = c.Lru.evictions; cc_resident = c.Lru.entries;
    cc_audits = Atomic.get cache.audits }

let cache_counters_to_json c =
  Printf.sprintf
    "{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"resident\":%d,\
     \"audits\":%d}"
    c.cc_hits c.cc_misses c.cc_evictions c.cc_resident c.cc_audits

let pp_cache_counters ppf c =
  Format.fprintf ppf
    "plans: %d hits, %d misses, %d evictions, %d resident, %d audits"
    c.cc_hits c.cc_misses c.cc_evictions c.cc_resident c.cc_audits
