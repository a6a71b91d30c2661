(** The shared search kernel behind every bounded procedure in the system.

    All Table 1 / Table 2 procedures are bounded explorations — depth-scanned
    unfoldings in {!Decision}, chain/boolean-combination search in
    {!Compose}, randomized equivalence in {!Mediator}, encoded-run agreement
    in {!Peer}.  This module gives them one budget vocabulary
    ({!Budget.t}), one structured exhaustion report ({!exhausted}), one
    instrumentation sink ({!Stats}) and one iterative-deepening driver
    ({!scan}), so no module hand-rolls its own [max_n : int] again. *)

(** {1 Budgets} *)

module Budget : sig
  (** A composable resource envelope for a search.  Every component is
      optional; an absent component never trips.  [max_depth] bounds the
      scan parameter (input length, chain length, ...), [max_nodes] the
      number of candidates expanded (disjuncts grounded, plans checked,
      samples drawn, ...), and [deadline_s] the wall-clock seconds the
      search may consume, measured from {!Meter.create} on the shared
      monotonic clock ([Obs.Clock]). *)
  type t = {
    max_depth : int option;
    max_nodes : int option;
    deadline_s : float option;
  }

  (** No limit at all.  Only safe together with a decisive bound. *)
  val unlimited : t

  val of_depth : int -> t
  val of_nodes : int -> t
  val of_seconds : float -> t

  val make :
    ?max_depth:int -> ?max_nodes:int -> ?deadline_s:float -> unit -> t

  (** Pointwise minimum: the combined budget trips when either does. *)
  val combine : t -> t -> t

  val is_unlimited : t -> bool

  (** [subsumes ~cached ~req]: may a definitive answer computed under
      budget [cached] be served to a request running under [req]?  True
      iff [req] is at least as generous on every deterministic axis
      ([max_depth], [max_nodes]; [None] = unlimited).  The wall-clock
      axis is ignored — deadlines are advisory and machine-dependent,
      and serving a stored answer satisfies any deadline.  This is the
      budget-monotonicity rule of the result cache (DESIGN.md §4h). *)
  val subsumes : cached:t -> req:t -> bool

  val pp : t Fmt.t

  (** Wire form for the composition server: components map to optional
      keys ([max_depth], [max_nodes], [deadline_s]), so [to_json unlimited]
      is [{}] and the two functions round-trip.  [of_json] rejects unknown
      fields and negative or non-finite values — it reads untrusted
      request bodies. *)
  val to_json : t -> Obs.Json.t

  val of_json : Obs.Json.t -> (t, string) result
end

(** {1 Structured exhaustion} *)

(** Which component of the budget tripped.  [`Candidates] marks a search
    that ran out of things to try rather than out of budget — the candidate
    space itself was exhausted without a decisive answer (e.g. the
    canonical-database space of validation, or the plan space of the
    bounded composition search). *)
type limit = [ `Depth | `Nodes | `Deadline | `Candidates ]

(** What a semi-procedure reports instead of a bare [Unknown of string]:
    which limit tripped and how far the search got before it did. *)
type exhausted = {
  limit : limit;
  depth_reached : int;  (** last scan depth fully explored *)
  nodes_expanded : int;  (** candidates expanded across all depths *)
  message : string;  (** human-readable summary for CLIs and logs *)
}

val pp_limit : limit Fmt.t
val pp_exhausted : exhausted Fmt.t

(** The structured wire form of a budget trip, served by [swsd] as the
    body of an [exhausted] response. *)
val exhausted_to_json : exhausted -> Obs.Json.t

(** {1 Instrumentation} *)

module Stats : sig
  (** A mutable counter sink threaded through the procedures.  Every
      instrumented entry point takes [?stats] and defaults to {!global},
      so casual callers get aggregate numbers for free (surfaced by
      [swscli --stats]) and benchmarks can isolate a fresh sink.

      The counter bumps double as the system's trace-emission points:
      each bump forwards a typed [Obs.Trace] event to the current tracing
      session (a no-op when tracing is off), so modules instrumented for
      stats are traced for free and events are never double-counted. *)
  type t

  val create : unit -> t

  (** The default sink. *)
  val global : t

  val reset : t -> unit

  (** {2 Counter bumps (used by the instrumented modules)} *)

  val node : ?count:int -> t -> unit
  val sat_call : t -> unit
  val hom_check : t -> unit
  val unfold_hit : t -> unit
  val unfold_miss : t -> unit

  (** [time t phase f] runs [f] and adds its wall-clock time (monotonic,
      via [Obs.Clock]) to [phase]'s bucket. *)
  val time : t -> string -> (unit -> 'a) -> 'a

  (** {2 Readers} *)

  val nodes_expanded : t -> int
  val sat_calls : t -> int
  val hom_checks : t -> int
  val unfold_cache_hits : t -> int
  val unfold_cache_misses : t -> int

  (** Accumulated wall-clock seconds per phase, in first-use order. *)
  val phases : t -> (string * float) list

  (** {2 Combining and snapshotting}

      [merge a b] is a fresh sink holding the pointwise sums — for
      combining per-run sinks into one report.  [snapshot] freezes the
      counters as a stable-keyed assoc list; [delta ~before t] subtracts a
      snapshot, giving the counter movement attributable to one run (the
      [counters] field of a provenance record).  Snapshots also carry the
      process-wide representation and lazy-engine gauges
      ([interner_size], [bitset_allocs], [lang_states_explored],
      [lang_antichain_peak], [lang_subsumption_prunes]), so a delta
      reports the interner growth, bit-set churn and antichain
      exploration work of the run. *)

  val merge : t -> t -> t
  val snapshot : t -> (string * int) list
  val delta : before:(string * int) list -> t -> (string * int) list

  (** Counters as a flat JSON object — the per-request and per-session
      [counters] fields of the server's responses. *)
  val counters_to_json : (string * int) list -> Obs.Json.t

  val snapshot_json : t -> Obs.Json.t

  val pp : t Fmt.t
end

(** {1 Metering} *)

module Meter : sig
  (** A running search's position against its budget.  Create one per
      top-level procedure call; [tick] it per candidate expanded; [check]
      it before starting a new depth. *)
  type t

  val create : ?stats:Stats.t -> Budget.t -> t

  (** Count [cost] candidates (default 1) against the node budget, and
      mirror them into the meter's stats sink. *)
  val tick : ?cost:int -> t -> unit

  val nodes : t -> int

  (** Wall-clock seconds left before the budget's deadline ([None]: no
      deadline; negative once it has passed), for kernels that take a
      deadline of their own. *)
  val remaining_s : t -> float option

  (** [check m ~depth] is [Error e] as soon as starting work at [depth]
      would exceed the budget — depth first, then nodes, then deadline. *)
  val check : t -> depth:int -> (unit, exhausted) result

  (** Build an {!exhausted} report at the meter's current node count, for
      procedures whose candidate space ran dry ([`Candidates]) or that
      detect a trip mid-depth.  Also emits [Obs.Trace.Budget_tripped] to
      the current tracing session, so every trip — whether from [check] or
      hand-built — shows up in traces exactly once. *)
  val exhaust : t -> depth_reached:int -> limit:limit -> string -> exhausted
end

(** {1 Cache switch}

    One global toggle for the memoization layers ({!Unfold}'s incremental
    unfolding store and {!Sws_pl}'s vector DFA store), so the benchmark can
    measure cached vs uncached on identical code paths. *)

val caching_enabled : unit -> bool
val set_caching : bool -> unit

(** {1 The iterative-deepening driver} *)

type 'a scan_outcome =
  | Found of 'a  (** the probe answered at some depth *)
  | Completed of int
      (** every depth up to the decisive bound was searched — a complete
          procedure may now answer [No] / [Equivalent] *)
  | Exhausted of exhausted

(** {1 Run provenance}

    [run ~name ~outcome f] wraps a procedure body that does not go through
    {!scan} (the decisive automata procedures, the samplers): it runs [f]
    inside an [Obs.Trace] span and records an [Obs.Trace.provenance] with
    the counter deltas attributable to the call.  Provenance is recorded
    even when tracing is off — it is a few words per run — and is read
    back via [Obs.Trace.last_provenance] or [swscli explain]. *)
val run :
  ?stats:Stats.t ->
  name:string ->
  outcome:('a -> Obs.Trace.outcome) ->
  (unit -> 'a) ->
  'a

(** [scan ?stats ?budget ?decisive_bound ?start ?name probe] runs
    [probe meter n] for n = [start], [start]+1, ... until the probe
    answers, the decisive bound completes, or the budget trips.  The probe
    shares one meter across depths, so node and deadline budgets apply to
    the whole scan; it should [Meter.tick] per candidate it expands.

    Each depth entered emits [Obs.Trace.Depth_started]; a decisive probe
    answer emits [Witness_found]; a trip emits [Budget_tripped] (via
    {!Meter.exhaust}).  On return, a provenance record named [name]
    (default ["scan"]) is stored with the scanned depth range, outcome
    and counter deltas.

    Raises [Invalid_argument] when neither [decisive_bound] nor any budget
    component bounds the scan (the search could never terminate). *)
val scan :
  ?stats:Stats.t ->
  ?budget:Budget.t ->
  ?decisive_bound:int ->
  ?start:int ->
  ?name:string ->
  (Meter.t -> int -> 'a option) ->
  'a scan_outcome

(** {1 Budget-monotone result memoization}

    [Memo] wraps {!run} with a process-lifetime, domain-safe result
    store ([Cache.Store]) keyed on exact canonical keys.  Procedures
    route their results through [Memo.run] instead of [run]; on a hit
    the stored answer is re-served (still through {!run}, so provenance
    and traces see every request), on a miss the body executes and the
    answer is stored iff [cacheable] accepts it.

    Correctness contract (DESIGN.md §4h): [cacheable] must reject every
    budget-dependent answer (any [Exhausted], sample-count agreements);
    a definitive answer is stored with the budget it was computed under
    and served only to requests whose budget {!Budget.subsumes} it.
    With those two rules, cache-on results are indistinguishable from
    cache-off on the deterministic budget axes. *)

module type MEMO_VALUE = sig
  type t

  val weight : t -> int
  (** Approximate resident bytes, for the store's byte cap. *)
end

module Memo (V : MEMO_VALUE) : sig
  type t

  val create : ?max_entries:int -> ?max_bytes:int -> cls:string -> unit -> t
  (** The store registers under cache class [cls] (gauges, [clear],
      [--cache-cap] all aggregate per class). *)

  val run :
    t ->
    ?stats:Stats.t ->
    ?budget:Budget.t ->
    name:string ->
    key:Cache.Store.Key.t ->
    outcome:(V.t -> Obs.Trace.outcome) ->
    cacheable:(V.t -> bool) ->
    (unit -> V.t) ->
    V.t
  (** Omit [budget] when the procedure is decisive independent of any
      budget (the answer is then served under every request budget);
      pass it otherwise.  When the global cache switch is off this is
      exactly {!run}. *)

  val set_persist :
    ?abi_sensitive:bool ->
    t ->
    tag:string ->
    encode:(V.t -> string option) ->
    decode:(string -> V.t option) ->
    unit
  (** Opt this memo into snapshot persistence under process-unique
      [tag] (see [Cache.Store.set_codec]).  The budget an entry was
      computed under travels alongside the value as its JSON wire form
      ([Budget.to_json]), so budget-monotone serving survives a reload;
      [Exhausted] answers are never cached, hence never persisted. *)

  val persist_marshal : t -> tag:string -> unit
  (** {!set_persist} with a [Marshal] codec.  Only for value types that
      are pure data (no closures, no abstract custom blocks): the bytes
      are abi-sensitive, and the snapshot layer refuses to decode them
      in any binary other than the one that wrote them. *)
end

(** {1 Cache registry surface}

    Re-exports of the [Cache.Store] registry, so the server and the
    CLIs can snapshot, diff, re-cap and clear every cache class through
    Engine alone. *)

val cache_snapshot : unit -> (string * Cache.Store.Gauges.t) list
val cache_total : unit -> Cache.Store.Gauges.t

val cache_clear_all : unit -> unit
(** Drop every entry of every registered class (gauges survive). *)

val cache_snapshot_delta :
  before:(string * Cache.Store.Gauges.t) list ->
  (string * Cache.Store.Gauges.t) list ->
  (string * Cache.Store.Gauges.t) list

val cache_set_caps : ?max_entries:int -> ?max_bytes:int -> unit -> unit

val cache_gauges_json : (string * Cache.Store.Gauges.t) list -> Obs.Json.t
(** Per-class [{hits,misses,evictions,entries,bytes}]. *)
