(** Per-connection session state.

    The paper's session semantics (§ runs/sessions) finally exercised as
    a server concept: a client connects, registers named component
    services, and issues composition / decision requests against them
    across many requests — the registry lives as long as the connection.
    Each session also carries its own [Engine.Stats] sink, merged from
    every request it has served, so [stats] reports session-scoped
    counters without touching the global sink.

    A session is owned by exactly one connection thread; requests on one
    connection are handled strictly in arrival order, so no locking is
    needed here.  Concurrency lives across sessions. *)

type component = {
  name : string;
  spec : string;  (** the regex text as registered *)
  regex : Automata.Regex.t;
}

type t

val create : sid:int -> t

val sid : t -> int

(** Registry stamp: advanced by every successful [register] (including
    an in-place re-registration, whose spec may differ) and every
    [unregister] that removed something.  The daemon's L1 reply cache
    stores each reply with the epoch it was computed at and serves it
    only at that epoch, so any registry change invalidates it
    (DESIGN.md §4h). *)
val epoch : t -> int

(** ["s<sid>-r<seq>"] — unique per request, deterministic per connection,
    echoed in every response. *)
val next_trace_id : t -> string

(** Session-scoped counter sink: every request handler merges its private
    per-request sink into this one via {!absorb}. *)
val stats : t -> Sws.Engine.Stats.t

val absorb : t -> Sws.Engine.Stats.t -> unit

val requests_handled : t -> int
val bump_handled : t -> unit

(** [register t ~max_components ~name ~spec] parses [spec] and stores the
    component.  Re-registering a name replaces its spec in place
    (registration order is preserved — component order is part of the
    deterministic-response contract).  [`Bad] is an unparsable spec or
    empty name; [`Full] a registry at [max_components]. *)
val register :
  t -> max_components:int -> name:string -> spec:string ->
  (component, [ `Bad of string | `Full ]) result

(** [seed t ~max_components comps] registers each [(name, spec)] from a
    snapshot's COMP section in order (unparsable specs are skipped).
    Returns the number of components registered. *)
val seed : t -> max_components:int -> (string * string) list -> int

(** [true] if the component existed. *)
val unregister : t -> string -> bool

val find : t -> string -> component option

(** In registration order. *)
val components : t -> component list

(** The component's NFA over an alphabet of [alphabet_size] symbols. *)
val nfa_of : component -> alphabet_size:int -> Automata.Nfa.t
