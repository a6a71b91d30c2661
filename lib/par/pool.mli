(** Fixed domain pool with deterministic fork/join combinators.

    The pool is process-global and lazily started: no domain is spawned until
    the first parallel call that actually needs one.  Worker domains are
    reused across calls and shut down through an [at_exit] hook, so their
    domain ids stay small and stable for the lifetime of the process — the
    per-domain sharding in {!Shard}, [Engine.Stats] and [Obs.Trace] relies on
    that.

    Every combinator here preserves sequential result order: chunks are
    contiguous slices of the input and results are concatenated in slice
    order, so the output is independent of how the OS schedules domains.
    With an effective job count of 1 every combinator degrades to a plain
    inline loop on the calling domain — no pool, no locks, no domains —
    which is what makes [--jobs 1] bit-identical to the pre-pool code.

    One kernel is data-parallel: [Cq]'s join fans its root branches out
    through {!parallel_list_map}.  The subset construction is sequential
    ([Dfa.Explorer], behind [Dfa.of_nfa] and every shortest-word and
    pair search): a BFS level split read 1.04-1.18x at two jobs on two
    cores, the server runs each request inside a pool task where the
    split runs inline anyway, and a lazy search that stops at its first
    witness has no level to split.  Candidate scans (MDT_b plans, UCQ
    disjuncts, mediators) stay sequential too: on two cores, rounds of
    candidates handed to the pool lost to the plain loop or gained at
    most 0.05 ms a call (EXPERIMENTS.md).  The server's request hop is
    {!async}. *)

val default_jobs : unit -> int
(** Job count used when {!set_jobs} has not been called: [SWS_JOBS] from the
    environment if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  Clamped to [1 .. 64]. *)

val jobs : unit -> int
(** The configured job count: the {!set_jobs} override if any, otherwise
    {!default_jobs}. *)

val set_jobs : int option -> unit
(** [set_jobs (Some n)] forces the job count (the [--jobs] CLI flag);
    [set_jobs None] restores {!default_jobs}.  Clamped to [1 .. 64].  The
    pool grows on demand but never shrinks; lowering the job count merely
    leaves the extra workers idle. *)

val effective_jobs : unit -> int
(** {!jobs}, except inside a pool task it is 1: nested parallel calls run
    inline on the executing domain rather than re-entering the pool, which
    keeps the fork/join discipline flat and deadlock-free. *)

(** {2 One-shot async tasks}

    The request-scheduling interface used by the composition server
    ([lib/server]): connection threads are systhreads serialised by their
    domain's runtime lock, so CPU-bound request work must hop to a pool
    domain to actually run in parallel. *)

type 'a promise

val async : (unit -> 'a) -> 'a promise
(** [async f] schedules [f] on the pool and returns immediately.  Safe to
    call from any systhread or domain.  With an effective job count of 1
    (sequential mode, or already inside a pool task) nothing is enqueued:
    the returned promise runs [f] on the thread that {!await}s it, so
    results and exceptions flow identically in both modes.  Pool tasks run
    flagged in-task: parallel combinators reached from [f] execute inline
    — the unit of parallelism is the task, and nesting stays flat. *)

val await : 'a promise -> 'a
(** Block until the task finishes; returns its value or re-raises its
    exception (with the original backtrace).  Each promise is one-shot
    with a single consumer: await it exactly once. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f arr] is [Array.map f arr] computed across the pool in
    contiguous chunks.  Result order is input order regardless of the job
    count.  [f] must be safe to run on any domain (the elements handed to
    each domain are disjoint, so per-element state is fine; shared state
    needs its own synchronisation).  An exception raised by [f] is re-raised
    on the calling domain after all chunks have finished. *)

val parallel_list_map : ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} for lists (input order preserved). *)
