(* Every mutable field, and both tables, are touched under [mutex] only. *)

type 'v slot = {
  value : 'v;
  weight : int;
  mutable stamp : int;                  (* last-use tick; unique *)
}

type 'v t = {
  mutex : Mutex.t;
  settled : Condition.t;                (* a computation finished or failed *)
  table : (string, 'v slot) Hashtbl.t;
  in_flight : (string, unit) Hashtbl.t;
  max_entries : int;
  max_weight : int;
  weight_of : string -> 'v -> int;
  mutable tick : int;
  mutable weight : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~max_entries ?(max_weight = max_int) ?(weight = fun _ _ -> 0) () =
  { mutex = Mutex.create (); settled = Condition.create ();
    table = Hashtbl.create 16; in_flight = Hashtbl.create 4; max_entries;
    max_weight; weight_of = weight; tick = 0; weight = 0; hits = 0;
    misses = 0; evictions = 0 }

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* must hold [mutex]; stamps are unique, so the victim is too *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k s ->
       match !victim with
       | Some (_, v) when v.stamp <= s.stamp -> ()
       | _ -> victim := Some (k, s))
    t.table;
  match !victim with
  | Some (k, s) ->
    Hashtbl.remove t.table k;
    t.weight <- t.weight - s.weight;
    t.evictions <- t.evictions + 1
  | None -> ()

(* must hold [mutex]. Only the caller that computed [key] inserts it,
   so it is absent here; the new entry carries the freshest stamp and
   outlives the eviction loop. *)
let insert t key value =
  let weight = t.weight_of key value in
  Hashtbl.add t.table key { value; weight; stamp = next_tick t };
  t.weight <- t.weight + weight;
  while
    (Hashtbl.length t.table > t.max_entries || t.weight > t.max_weight)
    && Hashtbl.length t.table > 1
  do
    evict_lru t
  done

let find_or_compute t key compute =
  Mutex.lock t.mutex;
  let rec lookup () =
    match Hashtbl.find_opt t.table key with
    | Some s ->
      t.hits <- t.hits + 1;
      s.stamp <- next_tick t;
      Mutex.unlock t.mutex;
      (s.value, `Hit)
    | None when Hashtbl.mem t.in_flight key ->
      (* another caller is computing this key: wait, then look again *)
      Condition.wait t.settled t.mutex;
      lookup ()
    | None ->
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
  in
  lookup ()

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
