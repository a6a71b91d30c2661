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
    variables + definition), as an opaque byte string computed once by
    {!make}: equal services get equal representations whatever their
    stamps.  The cache keys of the decision/composition result stores
    are built from it (DESIGN.md §4h). *)
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

(** The DFA of the service's reversed language, expanded on demand: the
    procedures of Theorem 4.1(3), run "along the lines of AFA
    non-emptiness".  Its states are the truth vectors of the service's
    live (state, message bit) pairs on the suffixes read so far, starting
    from the empty vector; a vector is final when the start pair is
    true.  [Decision] answers all three SWS(PL, PL) questions on it
    (reversal keeps word lengths and equivalence).  A row steps a vector
    on every symbol at once: each query is compiled, on the first row,
    to bit masks over the alphabet, one bit per symbol.  A fresh
    explorer, private to the caller, on every call; nothing derived from
    it is memoized. *)
val explore : t -> Automata.Dfa.Explorer.t

(** {1 Nonrecursive unfolding} *)

(** Input variable [x] at step [j] (1-based) in the unfolded formula. *)
val timed_var : string -> int -> string

(** The propositional formula over timed variables that is true exactly on
    the n-step inputs with output true.  Only for nonrecursive services:
    the NP / coNP reduction of Theorem 4.1(3). *)
val unfold : t -> n:int -> Prop.t

val pp : t Fmt.t
