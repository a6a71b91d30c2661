(** Per-domain instances of a mutable accumulator, merged at read time.

    A ['a t] hands each domain that touches it a private ['a] (created by the
    constructor passed to {!create}), so hot-path writes are plain
    unsynchronised mutation of domain-local state.  Readers fold over every
    instance the cell holds, in creation order, without a lock — the
    "per-domain + merge" scheme used by [Engine.Stats] counters,
    [Obs.Trace] ring buffers and the [Index] stores.

    On a single domain there is exactly one instance, created eagerly by
    {!create} for the calling domain, so sharded state behaves (and prints)
    exactly like the unsharded original.

    A domain's instance lives as long as its cell: it outlives the domain,
    so counts survive [Domain.join] and merging at a join point sees all
    work, and it becomes garbage with the cell, so cells created per
    request or per database cost nothing once dropped.  Writers must be
    the owning domain only; readers folding while another domain writes
    see a consistent-enough view for monotonic counters (int loads are
    atomic) but should fold once the writers are done for exact totals. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** [create fresh] makes a sharded cell; the calling domain's instance is
    created immediately (so it is first in fold order). *)

val get : 'a t -> 'a
(** This domain's instance, created on first use. *)

val owner : 'a t -> 'a
(** The instance of the domain that called {!create} — the fast path for
    code that knows it is on the owning domain. *)

val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
(** Fold over all instances in creation order (owner first). *)

val iter : ('a -> unit) -> 'a t -> unit
