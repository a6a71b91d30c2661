(* Process-global domain pool.

   Design constraints, in order:

   1. Determinism.  Work is split into contiguous chunks and results are
      reassembled in chunk order on the calling domain, so outputs never
      depend on scheduling.

   2. Bit-identical sequential mode.  When the effective job count is 1 the
      combinators run plain inline loops: no tasks, no locks, no domains.

   3. Flat fork/join.  A task that itself calls a combinator runs it inline
      ([in_task] is domain-local state), so the pool never nests and a full
      complement of busy workers cannot deadlock waiting on itself.

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

(* True while the current domain is executing a pool task (including the
   calling domain when it helps drain the queue). *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let effective_jobs () = if !(Domain.DLS.get in_task) then 1 else jobs ()

(* ---- pool state ------------------------------------------------------ *)

let lock = Mutex.create ()
let work_available = Condition.create ()
let batch_done = Condition.create ()
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

(* Run [tasks.(0) (); ...; tasks.(n-1) ()] to completion, each exactly once,
   across the pool plus the calling domain.  Re-raises the first exception
   observed (by task submission order is not guaranteed, but task bodies
   below only write into disjoint slots, so any exception is a genuine
   failure). *)
let run_tasks tasks =
  let n = Array.length tasks in
  let remaining = Atomic.make n in
  let first_exn = Atomic.make None in
  let wrap task () =
    (try task ()
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set first_exn None (Some (e, bt))));
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      (* last task out wakes the caller, who may already be waiting *)
      Mutex.lock lock;
      Condition.broadcast batch_done;
      Mutex.unlock lock
    end
  in
  Mutex.lock lock;
  Array.iter (fun t -> Queue.add (wrap t) queue) tasks;
  Condition.broadcast work_available;
  Mutex.unlock lock;
  (* the calling domain helps drain the queue, flagged as in-task so nested
     combinator calls run inline *)
  let flag = Domain.DLS.get in_task in
  let rec help () =
    Mutex.lock lock;
    if Queue.is_empty queue then Mutex.unlock lock
    else begin
      let task = Queue.pop queue in
      Mutex.unlock lock;
      flag := true;
      task ();
      flag := false;
      help ()
    end
  in
  help ();
  Mutex.lock lock;
  while Atomic.get remaining > 0 do
    Condition.wait batch_done lock
  done;
  Mutex.unlock lock;
  match Atomic.get first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ---- async tasks ----------------------------------------------------- *)

(* One-shot promises over the same worker queue the fork/join combinators
   drain.  The server's connection threads are systhreads multiplexed on
   the main domain (the per-domain runtime lock serialises them), so
   request compute must hop to a pool domain to run concurrently: [async]
   enqueues the thunk, [await] parks the submitting thread on the
   promise's condition variable until a worker finishes it.  Workers run
   async tasks with the [in_task] flag set, exactly like batch tasks, so a
   request handler that reaches a parallel combinator runs it inline —
   the grain of server parallelism is the request, and the fork/join
   discipline stays flat. *)

type 'a outcome = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a cell = { cm : Mutex.t; cc : Condition.t; mutable outcome : 'a outcome }
type 'a promise = Inline of (unit -> 'a) | Queued of 'a cell

let async f =
  let j = jobs () in
  if j <= 1 || !(Domain.DLS.get in_task) then Inline f
  else begin
    (* [j] full workers: unlike the fork/join path (j-1 workers + helping
       caller), awaiting threads do not drain the queue. *)
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

(* ---- chunking -------------------------------------------------------- *)

(* More chunks than domains smooths uneven per-element cost; chunk order
   still fully determines result order. *)
let chunks_per_domain = 4

let chunk_bounds n k =
  (* k contiguous slices covering 0..n-1, sizes differing by at most one *)
  let base = n / k and extra = n mod k in
  Array.init k (fun i ->
      let lo = (i * base) + min i extra in
      let len = base + if i < extra then 1 else 0 in
      (lo, len))

let parallel_map f arr =
  let n = Array.length arr in
  let j = effective_jobs () in
  if n = 0 then [||]
  else if j <= 1 || n < 2 then Array.map f arr
  else begin
    ensure_workers (j - 1);
    let k = min n (j * chunks_per_domain) in
    let bounds = chunk_bounds n k in
    let parts = Array.make k [||] in
    let tasks =
      Array.init k (fun i () ->
          let lo, len = bounds.(i) in
          parts.(i) <- Array.map f (Array.sub arr lo len))
    in
    run_tasks tasks;
    Array.concat (Array.to_list parts)
  end

let parallel_list_map f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ -> Array.to_list (parallel_map f (Array.of_list xs))
