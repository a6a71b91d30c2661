(* Process-global domain pool for one-shot async tasks.

   The grain of parallelism is the request: [async] hands a whole
   computation to a worker domain and [await] collects its value.  Inside
   a task everything runs sequentially, and a nested [async] runs inline
   ([in_task] is domain-local state), so a full complement of busy
   workers never waits on itself.

   The pool only ever grows (workers are parked on a condition variable when
   idle); domains spawned here live until [at_exit], which keeps domain ids
   stable for per-domain sharding elsewhere. *)

let max_jobs = 64

let clamp n = if n < 1 then 1 else if n > max_jobs then max_jobs else n

let env_jobs =
  lazy
    (match Option.map String.trim (Sys.getenv_opt "SWS_JOBS") with
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Some (clamp n)
      | _ -> None)
    | None -> None)

let default_jobs () =
  match Lazy.force env_jobs with
  | Some n -> n
  | None -> clamp (Domain.recommended_domain_count ())

let override = ref None

let set_jobs = function
  | None -> override := None
  | Some n -> override := Some (clamp n)

let jobs () =
  match !override with
  | Some n -> n
  | None -> default_jobs ()

(* True while the current domain is executing a pool task. *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* ---- pool state ------------------------------------------------------ *)

let lock = Mutex.create ()
let work_available = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let shutting_down = ref false
let workers = ref []

let worker_body () =
  let flag = Domain.DLS.get in_task in
  let rec loop () =
    Mutex.lock lock;
    while Queue.is_empty queue && not !shutting_down do
      Condition.wait work_available lock
    done;
    if Queue.is_empty queue then Mutex.unlock lock (* shutdown *)
    else begin
      let task = Queue.pop queue in
      Mutex.unlock lock;
      flag := true;
      task ();
      flag := false;
      loop ()
    end
  in
  loop ()

let shutdown () =
  Mutex.lock lock;
  shutting_down := true;
  Condition.broadcast work_available;
  Mutex.unlock lock;
  List.iter Domain.join !workers;
  workers := []

let registered_shutdown = ref false

let ensure_workers n =
  Mutex.lock lock;
  let have = List.length !workers in
  if have < n && not !shutting_down then begin
    if not !registered_shutdown then begin
      registered_shutdown := true;
      at_exit shutdown
    end;
    (* a freshly spawned worker blocks on [lock] until we release it below *)
    for _ = have + 1 to n do
      workers := Domain.spawn worker_body :: !workers
    done
  end;
  Mutex.unlock lock

(* ---- async tasks ----------------------------------------------------- *)

(* One-shot promises.  The server's connection threads are systhreads
   multiplexed on the main domain (the per-domain runtime lock serialises
   them), so request compute must hop to a pool domain to run
   concurrently: [async] enqueues the thunk, [await] parks the submitting
   thread on the promise's condition variable until a worker finishes
   it. *)

type 'a outcome = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a cell = { cm : Mutex.t; cc : Condition.t; mutable outcome : 'a outcome }
type 'a promise = Inline of (unit -> 'a) | Queued of 'a cell

let async f =
  let j = jobs () in
  if j <= 1 || !(Domain.DLS.get in_task) then Inline f
  else begin
    (* [j] workers: awaiting threads do not drain the queue *)
    ensure_workers j;
    let c = { cm = Mutex.create (); cc = Condition.create (); outcome = Pending } in
    let task () =
      let r =
        try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock c.cm;
      c.outcome <- r;
      Condition.broadcast c.cc;
      Mutex.unlock c.cm
    in
    Mutex.lock lock;
    Queue.add task queue;
    Condition.signal work_available;
    Mutex.unlock lock;
    Queued c
  end

let await = function
  | Inline f -> f ()
  | Queued c ->
    Mutex.lock c.cm;
    let rec wait () =
      match c.outcome with
      | Pending ->
        Condition.wait c.cc c.cm;
        wait ()
      | Done v ->
        Mutex.unlock c.cm;
        v
      | Failed (e, bt) ->
        Mutex.unlock c.cm;
        Printexc.raise_with_backtrace e bt
    in
    wait ()
