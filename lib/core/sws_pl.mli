(** SWS(PL, PL): synthesized Web services that are not data-driven
    (Section 2).  Input messages are truth assignments over the declared
    input variables, registers carry one truth value each, and all rule
    queries are propositional formulas:

    - transition queries range over the input variables and {!msg_var}
      (the parent's register);
    - final synthesis queries over the same;
    - internal synthesis queries over {!act_var}[ i] for the successors.

    Mirrors Figure 1(b): a state's value is a Boolean function of its
    successors' values (e.g. [X3 = Y1 \/ (~Y1 /\ Y2)]). *)

module Prop = Proplogic.Prop

(** The reserved variable standing for the parent's message register. *)
val msg_var : string

(** [act_var i] names the i-th successor's action register (0-based). *)
val act_var : int -> string

type query = Prop.t

type t

exception Ill_formed of string

(** Checks Definition 2.1 plus the variable discipline above. *)
val make :
  input_vars:string list ->
  start:string ->
  rules:(string * (query, query) Sws_def.rule) list ->
  t

(** A unique creation stamp (services are immutable). *)
val stamp : t -> int

(** Exact canonical representation of the service's content (input
    variables + definition), as an opaque byte string: equal services
    get equal representations whatever their stamps.  The cache keys of
    the decision/composition result stores are built from it
    (DESIGN.md §4h). *)
val canonical_repr : t -> string

val def : t -> (query, query) Sws_def.t
val input_vars : t -> string list
val is_recursive : t -> bool
val depth : t -> int option

(** Run semantics (the [Exec_tree] engine over Boolean registers). *)
module Sem : sig
  type db = unit
  type input = Prop.assignment
  type msg = bool
  type act = bool
  type trans_query = query
  type synth_query = query

  val msg_is_empty : msg -> bool
  val apply_trans : db -> input -> msg -> trans_query -> msg
  val synth_final : db -> input -> msg -> synth_query -> act
  val synth_combine : act list -> synth_query -> act
end

module Run : module type of Exec_tree.Make (Sem)

val run_tree : t -> Prop.assignment list -> Run.node

(** tau(D, I) for the PL class: one truth value. *)
val run : t -> Prop.assignment list -> bool

(** {1 Symbol encoding}  Assignments over the input variables as an integer
    alphabet (bitmask in declaration order). *)

val alphabet_size : t -> int
val assignment_of_symbol : t -> int -> Prop.assignment
val symbol_of_assignment : t -> Prop.assignment -> int
val accepts_word : t -> int list -> bool

(** The alternating automaton of the service's language (sequences with
    output true): states are (SWS state, message bit) pairs; see the
    implementation for the construction.  Drives the PSPACE procedures of
    Theorem 4.1(3).  Built afresh on every call: the memoized chain keeps
    only its vector DFA. *)
val to_afa : t -> Automata.Afa.t

(** [Afa.reverse_vector_dfa] of {!to_afa}: the DFA of the reversed
    language over reachable truth vectors.  [List.rev] of its
    [Dfa.shortest_word] is [Afa.shortest_word (to_afa t)].

    Memoized per service *content* (together with {!language_nfa},
    forming the two-stage vector DFA → NFA chain): the
    chain record lives in the process-lifetime store (cache class
    ["automata"]) keyed on {!canonical_repr}, so equal services built by
    different requests or server sessions share one chain, and is
    re-weighed in that store each time a stage fills.  Bypassed
    entirely under [Engine.set_caching false]; cache traffic is counted
    into [stats] (default: the global sink). *)
val vector_dfa : ?stats:Engine.Stats.t -> t -> Automata.Dfa.t

(** [Nfa.reverse (Dfa.to_nfa (vector_dfa t))] — exactly
    [Afa.to_nfa (to_afa t)] — memoized per service. *)
val language_nfa : ?stats:Engine.Stats.t -> t -> Automata.Nfa.t

(** Drop this service's memoized automata. *)
val clear_cache : t -> unit

(** {1 Nonrecursive unfolding} *)

(** Input variable [x] at step [j] (1-based) in the unfolded formula. *)
val timed_var : string -> int -> string

(** The propositional formula over timed variables that is true exactly on
    the n-step inputs with output true.  Only for nonrecursive services:
    the NP / coNP reduction of Theorem 4.1(3). *)
val unfold : t -> n:int -> Prop.t

val pp : t Fmt.t
