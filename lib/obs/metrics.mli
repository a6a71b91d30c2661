(** A typed metrics registry: counters, gauges and label-sets over the
    {!Trace.Hist} log-2 histograms, with a JSON snapshot and a
    Prometheus/OpenMetrics text exporter.

    Design constraints, in order:

    {ol
    {- {b Contention-free hot path.}  Counter increments and histogram
       observations land in per-domain instances ({!Par.Shard}) — one
       atomic load and slot lookup, plain unsynchronised mutation, no lock,
       no atomic RMW.  Readers merge the shards at scrape time.}
    {- {b Zero cost when off.}  {!set_enabled}[ false] turns every bump
       into one atomic load and a branch; values read back as they were.
       Results of instrumented code are identical either way.}
    {- {b Valid exposition, checked at registration.}  Metric and label
       names are validated against the Prometheus grammar when a family
       is created ([Invalid_argument] otherwise), so the exporter can
       never emit an unparseable page; label {e values} are arbitrary
       bytes and are escaped on export.}}

    Registration (creating a family or a labeled child) takes the
    registry mutex and is expected to happen at startup; the handles it
    returns are the lock-free hot path.  Re-registering the same name
    with the same kind returns the existing family; the same label set
    returns the existing child. *)

type t
(** A metrics registry: an ordered set of metric families, each holding
    one child per label-set. *)

val create : unit -> t

(** {1 The global switch}

    One process-wide toggle (the bench's metrics-off arm and
    [swsd --no-metrics]).  Disabled means writes are dropped; reads and
    export still work. *)

val set_enabled : bool -> unit

val enabled : unit -> bool

(** {1 Name validation}

    Exposed for the exposition tests: the exporter's output is only as
    parseable as these grammars. *)

val valid_metric_name : string -> bool
(** [[a-zA-Z_:][a-zA-Z0-9_:]*] — the Prometheus metric-name grammar. *)

val valid_label_name : string -> bool
(** [[a-zA-Z_][a-zA-Z0-9_]*], not starting with [__] (reserved). *)

val escape_label_value : string -> string
(** Backslash, double-quote and newline escaped per the text format. *)

val escape_help : string -> string
(** Backslash and newline escaped (HELP lines). *)

(** {1 Instruments} *)

module Counter : sig
  type t

  val inc : ?by:int -> t -> unit
  (** Monotonic; [by] defaults to 1, negative [by] is ignored. *)

  val value : t -> int
  (** Merged across domains. *)
end

module Gauge : sig
  (** A settable level (in-flight requests, open connections).  Gauges
      are low-frequency instruments, so one atomic cell is enough — no
      sharding. *)
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
  val sub : t -> int -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  val observe : t -> int -> unit
  (** Record one non-negative value (typically a duration in ns) into
      the calling domain's {!Trace.Hist}; negatives clamp to 0. *)

  val snapshot : t -> Trace.Hist.t
  (** Fresh merged histogram across domains. *)
end

(** {1 Registration}

    [labels] is the child's label binding, e.g.
    [[("method", "compose")]]; it defaults to the empty set.  Label
    bindings are canonicalized by sorting on label name, so the same set
    in any order names the same child.  Raises [Invalid_argument] on an
    invalid metric/label name, a kind clash with an existing family, or
    a label-name set differing from the family's existing children. *)

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

val gauge_fn :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  (unit -> int) ->
  unit
(** A callback gauge, read at scrape time (uptime, pool size, bridged
    cache gauges).  The callback must be safe to call from the scrape
    thread; an exception it raises is caught and exported as 0. *)

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> string -> Histogram.t

(** {1 Export} *)

val to_json : t -> Json.t
(** [{"families": [{name; kind; help; series: [{labels; ...value}]}]}] —
    counters/gauges carry ["value"], histograms the {!Trace.Hist.to_json}
    fields plus p50/p95/p99 read via {!Trace.Hist.quantile}. *)

val to_prometheus : t -> string
(** Prometheus text format (content type
    [text/plain; version=0.0.4]): one [# HELP]/[# TYPE] pair per family,
    counters exposed with the [_total] suffix, histograms as cumulative
    [_bucket{le="..."}] series (log-2 upper bounds, ns) plus [_sum] and
    [_count].  Families export in registration order, children in
    creation order; no series is ever emitted twice. *)

val expose_name : string -> [ `Counter | `Gauge | `Histogram ] -> string
(** The exposition name of a family ([_total] appended for counters
    unless already present) — exported for the shape tests. *)
