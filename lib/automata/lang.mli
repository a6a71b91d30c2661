(** The lazy language-decision engine: containment, equivalence, emptiness
    and universality of NFAs decided by on-the-fly product/subset
    exploration with antichain subsumption — the matching upper-bound
    technique for the EXPTIME lower bound on automata-game composition.

    The eager pipeline ([Dfa.of_nfa] then a DFA product) materializes the
    full subset automaton before asking the question; this engine explores
    pairs [(p, S)] of a left-automaton state and a right-automaton state
    set ({!Repr.Bitset}) breadth-first, pruning every pair whose right set
    is a superset of one already explored for the same [p] (rejection is
    antitone in the set, so the smaller set reaches every counterexample
    the larger one does).  On adversarial families (the k-th-symbol-from-
    the-end NFAs whose minimal DFA needs [2^k] states) the frontier stays
    polynomial where determinization walls out.

    This is the only language engine.  The determinizing procedures of
    {!Dfa} ([nfa_contains_cex], [nfa_equivalent]) are its test oracle,
    not an alternative to it.  Exploration is sequential and
    deterministic: verdicts and witness words are identical at every
    domain-pool size. *)

(** Exploration limits ([None] = unlimited), checked as the engine
    explores. *)
type limits = {
  max_states : int option;  (** product pairs expanded *)
  max_depth : int option;  (** BFS depth = witness word length *)
  deadline_s : float option;  (** wall clock from the call *)
}

val no_limits : limits
val limits : ?max_states:int -> ?max_depth:int -> ?deadline_s:float -> unit -> limits

(** A tripped exploration: which limit stopped it and how far it got.
    A trip is the only alternative to a sound verdict — the engine never
    converts an exhausted search into a Yes or a No. *)
type trip = {
  tripped : [ `States | `Depth | `Deadline ];
  depth_reached : int;
  states_explored : int;
}

val pp_trip : trip Fmt.t

type 'a run = ('a, trip) result

(** [contains_cex sup sub] decides [L(sub) <= L(sup)] (the argument order
    of {!Dfa.nfa_contains}): [Ok None] when contained, [Ok (Some w)] with
    [w] a shortest word of [L(sub) \ L(sup)] otherwise.  [tick] is called
    once per expanded pair (the caller's stats hook).  Raises
    [Invalid_argument] when the alphabets differ. *)
val contains_cex :
  ?limits:limits ->
  ?tick:(unit -> unit) ->
  Nfa.t ->
  Nfa.t ->
  int list option run

val contains :
  ?limits:limits ->
  ?tick:(unit -> unit) ->
  Nfa.t ->
  Nfa.t ->
  bool run

(** [equivalent_cex n1 n2]: [Ok None] when the languages coincide,
    [Ok (Some w)] with [w] accepted by exactly one of the two otherwise.
    Containment is checked [L(n1) <= L(n2)] first, then the converse, so
    the witness is a shortest word of the first non-empty difference —
    the convention of {!Dfa.distinguishing_word}. *)
val equivalent_cex :
  ?limits:limits ->
  ?tick:(unit -> unit) ->
  Nfa.t ->
  Nfa.t ->
  int list option run

val equivalent :
  ?limits:limits ->
  ?tick:(unit -> unit) ->
  Nfa.t ->
  Nfa.t ->
  bool run

(** [universal_cex n]: [Ok None] when [L(n)] is all words, [Ok (Some w)]
    with [w] a shortest rejected word otherwise — containment of the
    one-state universal automaton in [n]. *)
val universal_cex :
  ?limits:limits ->
  ?tick:(unit -> unit) ->
  Nfa.t ->
  int list option run

(** Metered emptiness: a reachability fixpoint on eps-closed state sets,
    no determinization. *)
val is_empty : ?limits:limits -> ?tick:(unit -> unit) -> Nfa.t -> bool run

(** {1 Process-wide gauges}  Read at snapshot time by [Engine.Stats] and
    the server's telemetry registry, like the interner and bit-set
    gauges: no per-sink plumbing, monotone except {!antichain_peak}. *)

(** Product pairs expanded since process start. *)
val states_explored_total : unit -> int

(** Largest kept-pair count any single exploration reached. *)
val antichain_peak : unit -> int

(** Candidates pruned or retro-dropped by subsumption since start. *)
val subsumption_prunes_total : unit -> int
