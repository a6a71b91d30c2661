(** Fixed domain pool for one-shot async tasks.

    One grain of parallelism: the request.  The composition server
    ([lib/server]) runs each request's compute as one {!async} task, so
    requests run on several domains, and everything inside a task runs
    sequentially.  No kernel splits its own work across the pool:
    determinization, shortest-word and pair searches, candidate scans and
    the indexed CQ join all run on the calling domain at every job count
    (EXPERIMENTS.md, "Parallel grains on 2 CPUs" and "One parallel
    grain").

    The pool is process-global and lazily started: no domain is spawned
    until the first {!async} that needs one.  Worker domains are reused
    across tasks and shut down through an [at_exit] hook, so their domain
    ids stay small and stable for the lifetime of the process — the
    per-domain sharding in {!Shard}, [Engine.Stats] and [Obs.Trace] relies
    on that. *)

val jobs : unit -> int
(** The configured job count: the {!set_jobs} override if any, otherwise
    [SWS_JOBS] from the environment if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()].  Clamped to
    [1 .. 64]. *)

val set_jobs : int option -> unit
(** [set_jobs (Some n)] forces the job count (swsd's [--jobs] flag);
    [set_jobs None] restores the default.  Clamped to [1 .. 64].  The pool
    grows on demand but never shrinks; lowering the job count merely
    leaves the extra workers idle. *)

type 'a promise

val async : (unit -> 'a) -> 'a promise
(** [async f] schedules [f] on the pool and returns immediately.  Safe to
    call from any systhread or domain.  Connection threads are systhreads
    serialised by their domain's runtime lock, so CPU-bound request work
    must hop to a pool domain to actually run in parallel.  At a job count
    of 1, or inside a pool task, nothing is enqueued: the returned promise
    runs [f] on the thread that {!await}s it, so results and exceptions
    flow identically in both modes, and a nested [async] can never wait
    on a worker that is busy waiting for it. *)

val await : 'a promise -> 'a
(** Block until the task finishes; returns its value or re-raises its
    exception (with the original backtrace).  Each promise is one-shot
    with a single consumer: await it exactly once. *)
