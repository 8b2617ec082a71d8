type t = {
  m : Mutex.t;
  rate : float;
  burst : float;
  mutable tokens : float;
  mutable last : float;     (* clock of the last refill *)
}

let wall () = Unix.gettimeofday ()

let create ?now ~rate ~burst () =
  if rate < 0.0 then invalid_arg "Ratelimit.create: negative rate";
  if burst <= 0.0 then invalid_arg "Ratelimit.create: non-positive burst";
  let now = match now with Some t -> t | None -> wall () in
  { m = Mutex.create (); rate; burst; tokens = burst; last = now }

(* call with [m] held *)
let refill t now =
  (* a clock that goes backwards (or a caller-injected earlier instant)
     must not mint tokens *)
  if now > t.last then begin
    t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate));
    t.last <- now
  end

let try_take ?now t =
  let now = match now with Some c -> c | None -> wall () in
  Mutex.lock t.m;
  refill t now;
  let ok = t.tokens >= 1.0 in
  if ok then t.tokens <- t.tokens -. 1.0;
  Mutex.unlock t.m;
  ok
