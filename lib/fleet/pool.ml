(* Long-lived verification domain pool.

   [Domain.spawn] costs milliseconds and every spawned domain joins the
   stop-the-world minor-GC barrier, so spawning workers per batch makes
   small batches slower than serial verification. The pool spawns its
   workers once — lazily, on the first job — and keeps them blocked on a
   condition variable between batches, so steady-state fleet traffic
   pays queue operations only.

   The submitting domain is a first-class worker: while it waits for
   its jobs it drains the queue itself ([try_run_one]) alongside the
   spawned workers, so a pool of [domains = n] applies n-way
   parallelism with only n - 1 spawned domains (and [domains = 1]
   spawns nothing at all, degrading to plain serial execution). *)

type t = {
  parallelism : int;                     (* including the submitting domain *)
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;  (* spawned lazily; parallelism - 1 *)
  mutable state : [ `Fresh | `Running | `Stopped ];
}

let create ?domains () =
  let parallelism =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if parallelism < 1 then invalid_arg "Pool.create: domains must be >= 1";
  { parallelism; mutex = Mutex.create (); nonempty = Condition.create ();
    jobs = Queue.create (); workers = []; state = `Fresh }

let domains t = t.parallelism
let workers t = t.parallelism - 1

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec take () =
      match Queue.take_opt t.jobs with
      | Some job -> Mutex.unlock t.mutex; Some job
      | None ->
        if t.state = `Stopped then begin Mutex.unlock t.mutex; None end
        else begin Condition.wait t.nonempty t.mutex; take () end
    in
    match take () with
    | Some job -> job (); loop ()
    | None -> ()
  in
  loop ()

(* must hold [t.mutex] *)
let ensure_started t =
  if t.state = `Fresh then begin
    t.state <- `Running;
    t.workers <-
      List.init (t.parallelism - 1) (fun _ ->
          Domain.spawn (fun () -> worker_loop t))
  end

let submit t job =
  Mutex.lock t.mutex;
  match t.state with
  | `Stopped ->
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  | `Fresh | `Running ->
    ensure_started t;
    Queue.add job t.jobs;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

let try_run_one t =
  Mutex.lock t.mutex;
  match Queue.take_opt t.jobs with
  | Some job -> Mutex.unlock t.mutex; job (); true
  | None -> Mutex.unlock t.mutex; false

let shutdown t =
  Mutex.lock t.mutex;
  match t.state with
  | `Stopped -> Mutex.unlock t.mutex
  | `Fresh -> t.state <- `Stopped; Mutex.unlock t.mutex
  | `Running ->
    t.state <- `Stopped;
    Condition.broadcast t.nonempty;
    let ws = t.workers in
    t.workers <- [];
    Mutex.unlock t.mutex;
    List.iter Domain.join ws
