(** Nondeterministic finite automata with epsilon transitions over the
    integer alphabet [{0, ..., alphabet_size - 1}].

    State sets are packed bit sets ({!Repr.Bitset}); [Iset] is an alias, so
    existing [Nfa.Iset.mem]/[iter]/[elements] call sites read unchanged.
    Per-state epsilon closures are memoized inside each automaton.

    This module steps sets; it runs no subset search of its own.  The
    one subset search is [Dfa.Explorer]: [Dfa.of_nfa] forces it over
    {!eps_closure} of the start set and {!step}. *)

module Iset = Repr.Bitset

type t

val create :
  num_states:int ->
  alphabet_size:int ->
  starts:int list ->
  finals:int list ->
  edges:(int * int * int) list ->
  eps_edges:(int * int) list ->
  t

val num_states : t -> int
val alphabet_size : t -> int
val starts : t -> int list
val finals : t -> int list

(** The start/final state sets without list conversion. *)
val start_set : t -> Iset.t

val final_set : t -> Iset.t
val successors : t -> int -> int -> Iset.t
val eps_successors : t -> int -> Iset.t
val edges : t -> (int * int * int) list

(** Exact canonical representation of the automaton's content (states,
    transitions, epsilon edges), as an opaque byte string: structurally
    equal automata get equal strings however much their lazy closure
    memos have been filled.  Composition cache keys are built from it
    (DESIGN.md §4h). *)
val canonical_repr : t -> string

(** Epsilon closure of one state, memoized per automaton.  Safe to call
    on one automaton from several domains: the memo write is a benign
    race (every writer stores the same immutable closure). *)
val closure_of_state : t -> int -> Iset.t

val eps_closure : t -> Iset.t -> Iset.t

(** [step n s a]: the eps-closed [a]-successors of the set [s]. *)
val step : t -> Iset.t -> int -> Iset.t

(** [post n p a] is [step n (Iset.singleton p) a]: the eps-closed
    [a]-successors of the one state [p]. *)
val post : t -> int -> int -> Iset.t

val accepts : t -> int list -> bool

(** Emptiness by reachability over single states, no subset search. *)
val is_empty : t -> bool

val empty : int -> t
val epsilon : int -> t
val symbol : int -> int -> t
val union : t -> t -> t
val concat : t -> t -> t
val star : t -> t
val of_regex : alphabet_size:int -> Regex.t -> t
val reverse : t -> t

(** Product intersection (epsilon-free on-the-fly construction). *)
val inter : t -> t -> t

(** Epsilon removal: same language, empty epsilon map. *)
val eps_free : t -> t

(** Relabel symbols; [f a] lists the new symbols standing for [a]. *)
val map_symbols : alphabet_size:int -> (int -> int list) -> t -> t

val pp : t Fmt.t
