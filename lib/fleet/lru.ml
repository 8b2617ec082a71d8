(* Every mutable field, both tables and the recency list are touched
   under [mutex] only. *)

(* The recency list is circular through a sentinel node: the sentinel's
   [next] is the most recently used entry, its [prev] the least. Each
   resident slot holds its node, so a hit relinks it in place. *)
type node = {
  key : string;
  mutable prev : node;
  mutable next : node;
}

type 'v slot = {
  hit : 'v * [ `Hit | `Miss ];          (* what a hit returns, built once *)
  weight : int;
  node : node;
}

type 'v t = {
  mutex : Mutex.t;
  settled : Condition.t;                (* a computation finished or failed *)
  table : (string, 'v slot) Hashtbl.t;
  in_flight : (string, unit) Hashtbl.t;
  recency : node;                       (* the sentinel *)
  max_entries : int;
  max_weight : int;
  weight_of : string -> 'v -> int;
  mutable weight : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~max_entries ?(max_weight = max_int) ?(weight = fun _ _ -> 0) () =
  let rec recency = { key = ""; prev = recency; next = recency } in
  { mutex = Mutex.create (); settled = Condition.create ();
    table = Hashtbl.create 16; in_flight = Hashtbl.create 4; recency;
    max_entries; max_weight; weight_of = weight; weight = 0; hits = 0;
    misses = 0; evictions = 0 }

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let link_front t n =
  let s = t.recency in
  n.prev <- s;
  n.next <- s.next;
  s.next.prev <- n;
  s.next <- n

(* must hold [mutex]. Only the caller that computed [key] inserts it,
   so it is absent here; the new entry is at the front of the list and
   outlives the eviction loop, which takes the least recent from the
   back. *)
let insert t key value =
  let weight = t.weight_of key value in
  let rec node = { key; prev = node; next = node } in
  link_front t node;
  Hashtbl.add t.table key { hit = (value, `Hit); weight; node };
  t.weight <- t.weight + weight;
  while
    (Hashtbl.length t.table > t.max_entries || t.weight > t.max_weight)
    && Hashtbl.length t.table > 1
  do
    let victim = t.recency.prev in
    unlink victim;
    t.weight <- t.weight - (Hashtbl.find t.table victim.key).weight;
    Hashtbl.remove t.table victim.key;
    t.evictions <- t.evictions + 1
  done

(* must hold [mutex]; returns with it released *)
let rec lookup t key compute =
  match Hashtbl.find t.table key with
  | s ->
    t.hits <- t.hits + 1;
    unlink s.node;
    link_front t s.node;
    Mutex.unlock t.mutex;
    s.hit
  | exception Not_found when Hashtbl.mem t.in_flight key ->
    (* another caller is computing this key: wait, then look again *)
    Condition.wait t.settled t.mutex;
    lookup t key compute
  | exception Not_found ->
    t.misses <- t.misses + 1;
    Hashtbl.add t.in_flight key ();
    Mutex.unlock t.mutex;
    (* compute outside the lock: it is the expensive part and must not
       serialize lookups of other keys *)
    let settle () =
      Mutex.lock t.mutex;
      Hashtbl.remove t.in_flight key;
      Condition.broadcast t.settled
    in
    (match compute () with
     | exception e ->
       settle ();
       Mutex.unlock t.mutex;
       raise e
     | v ->
       settle ();
       insert t key v;
       Mutex.unlock t.mutex;
       (v, `Miss))

let find_or_compute t key compute =
  Mutex.lock t.mutex;
  lookup t key compute

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  weight : int;
}

let counters (t : _ t) =
  Mutex.lock t.mutex;
  let c =
    { hits = t.hits; misses = t.misses; evictions = t.evictions;
      entries = Hashtbl.length t.table; weight = t.weight }
  in
  Mutex.unlock t.mutex;
  c
