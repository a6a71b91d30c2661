(** Structured tracing: typed events, spans, latency histograms, and run
    provenance for the bounded procedures.

    Design constraints, in order:

    {ol
    {- {b Zero cost when off.}  No session installed means every [emit]
       and [span] collapses to one ref read and a branch; procedure
       results are byte-identical with tracing on or off.}
    {- {b Bounded.}  Events land in a fixed-capacity ring buffer; when it
       wraps, the oldest events are overwritten and counted in
       {!dropped}, never allocated without bound.}
    {- {b Layered below the engine.}  This module must not depend on
       [Engine], yet events mention budget limits.  [Engine.limit] is a
       polymorphic variant, so we declare the {e structurally identical}
       type here and the two unify at every call site without a
       dependency edge.}}

    Timestamps come from {!Clock} (monotonic nanoseconds).  Two exporters
    are provided: Chrome [trace_event] JSON (load the file in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}) and
    compact JSONL, one event object per line. *)

(** Same shape as [Engine.limit]; the polymorphic-variant types unify. *)
type limit = [ `Depth | `Nodes | `Deadline | `Candidates ]

type event =
  | Depth_started of int  (** iterative deepening entered this depth *)
  | Candidate_expanded  (** one search node expanded ([Stats.node]) *)
  | Cache of { layer : string; hit : bool }
      (** memo lookup in [layer] ("unfold", "decision", "index", ...) *)
  | Sat_call  (** one satisfiability/emptiness oracle call *)
  | Hom_check  (** one homomorphism / containment check *)
  | Budget_tripped of limit  (** the meter stopped the run *)
  | Witness_found  (** a probe returned a decisive witness *)
  | Span_begin of string  (** phase entry (paired with [Span_end]) *)
  | Span_end of string

val limit_to_string : limit -> string
val event_name : event -> string

(** {1 Latency histograms} *)

(** Log-2 bucketed duration histograms: bucket [0] covers [[0, 2)] ns and
    bucket [i >= 1] covers [[2^i, 2^(i+1))] ns, so ~63 buckets span the
    full [int] range with constant relative error.  Mutable and not
    thread-safe on its own — sessions keep one histogram table per
    emitting domain and merge them at read time. *)
module Hist : sig
  type t

  val create : unit -> t

  (** Record one duration in ns; negatives clamp to 0. *)
  val observe : t -> int -> unit

  val count : t -> int
  val sum_ns : t -> int
  val bucket_index : int -> int

  (** [(lo, hi)], inclusive-exclusive — except the top bucket, whose [hi]
      caps at [max_int] and includes it. *)
  val bucket_bounds : int -> int * int

  (** Nonzero [(index, count)] pairs, ascending by index. *)
  val buckets : t -> (int * int) list

  (** Fresh histogram with summed counts. *)
  val merge : t -> t -> t

  (** [quantile t q] for [q] in [[0, 1]] (clamped): the {e exclusive
      upper bound} of the bucket holding the [ceil (q * count)]-th
      smallest observation, so the true quantile never exceeds the
      reported value.  Returns [0] on an empty histogram.  This is the
      p50/p95/p99 read-out of the bench and the telemetry plane — exact
      to within one log-2 bucket (constant relative error). *)
  val quantile : t -> float -> int

  val to_json : t -> Json.t
end

(** {1 Sessions} *)

type t
(** An installed tracing session.  Each domain that emits into the session
    gets a private ring buffer and histogram table (no lock on the
    recording path); the inspection functions below merge the per-domain
    shards — events by monotonic timestamp, histograms by name — so on a
    single domain a session reads back exactly like the unsharded
    original. *)

val default_capacity : int
(** Ring capacity {e per emitting domain}. *)

(** [install ?capacity ()] creates a session and makes it current;
    replaces any previously current session. *)
val install : ?capacity:int -> unit -> t

(** Clear the current session; subsequent emissions are no-ops. *)
val uninstall : unit -> unit

val enabled : unit -> bool

(** [with_session ?capacity f] installs a fresh session around [f],
    uninstalling it afterwards (also on exception); returns [f]'s result
    and the session. *)
val with_session : ?capacity:int -> (unit -> 'a) -> 'a * t

(** Record an event in the current session, if any. *)
val emit : event -> unit

(** [span name f] brackets [f] with [Span_begin]/[Span_end] (also on
    exception) and feeds the duration into the session histogram for
    [name].  When disabled it is exactly [f ()]. *)
val span : string -> (unit -> 'a) -> 'a

(** [observe name ns] feeds a duration into [name]'s histogram without
    emitting span events. *)
val observe : string -> int -> unit

(** {1 Inspection} *)

val events : t -> (int64 * event) list
(** surviving events, chronological; timestamps are raw [Clock.now_ns] *)

val event_count : t -> int
val dropped : t -> int
val start_ns : t -> int64
val histograms : t -> (string * Hist.t) list

(** {1 Run provenance}

    Provenance is recorded {e unconditionally} — it is a handful of words
    per procedure run, so unlike event tracing it needs no opt-in.  The
    engine records one record per completed bounded run; decisive
    procedures record [Decided].  A bounded number of recent records is
    retained ({!keep_provenances}). *)

type outcome =
  | Decided of bool  (** decisive procedure, with its answer *)
  | Found_at of int  (** witness found at this depth *)
  | Completed of int  (** all depths through this one scanned, no witness *)
  | Tripped of limit  (** budget stopped the run *)

type provenance = {
  procedure : string;
  outcome : outcome;
  first_depth : int;
  last_depth : int;  (** deepest depth entered; [first_depth - 1] if none *)
  counters : (string * int) list;  (** counter deltas for this run *)
  duration_ns : int64;
}

val keep_provenances : int

val record_provenance : provenance -> unit
val last_provenance : unit -> provenance option

(** Most recent first, at most {!keep_provenances} entries. *)
val provenances : unit -> provenance list

(** Rewrite the most recent record (e.g. when a post-scan phase refines
    the outcome); no-op when none exists. *)
val amend_last_provenance : (provenance -> provenance) -> unit

val clear_provenances : unit -> unit
val outcome_to_string : outcome -> string
val provenance_to_json : provenance -> Json.t
val pp_provenance : provenance Fmt.t

(** {1 Exporters} *)

(** Chrome [trace_event] format: [{"traceEvents": [...]}] with [B]/[E]
    pairs for spans and [i] (instant) events for the rest; timestamps in
    microseconds relative to session start.  Recorded provenances ride
    along under a ["provenance"] key. *)
val to_chrome : t -> Json.t

(** One compact JSON object per event, in order. *)
val to_jsonl : t -> string list

val write_chrome : t -> string -> unit
val write_jsonl : t -> string -> unit
