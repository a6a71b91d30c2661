(** Rewriting of regular languages using view languages
    (Calvanese-De Giacomo-Lenzerini-Vardi [8]): the maximal rewriting of a
    target over views E1..Ek is

      M = \{ Vi1 ... Vim | E_i1 · ... · E_im ⊆ L(target) \},

    computed as the complement of the automaton accepting view words with
    an expansion escaping the target.  Theorem 5.3 reduces MDT(∨)
    composition to exactly this. *)

(** The relation \{ (q, q') | some u ∈ L(view) drives the DFA q → q' \}. *)
val word_relation : Automata.Dfa.t -> Automata.Nfa.t -> (int * int) list

(** The maximal rewriting, as a DFA over the view alphabet [0..k-1]. *)
val maximal_rewriting :
  target:Automata.Nfa.t -> views:Automata.Nfa.t list -> Automata.Dfa.t

(** Substitute each view symbol by its language. *)
val expansion : views:Automata.Nfa.t list -> Automata.Dfa.t -> Automata.Nfa.t

type result =
  | Exact of Automata.Dfa.t      (** equivalent rewriting *)
  | Maximal of Automata.Dfa.t    (** strictly contained: no equivalent one *)
  | Empty_rewriting              (** no view word fits inside the target *)

(** [rewrite ~target ~views ()] classifies the maximal rewriting.  The
    exactness check (expansion covers target) runs on {!Automata.Lang}
    without limits, so it is always decisive. *)
val rewrite :
  target:Automata.Nfa.t ->
  views:Automata.Nfa.t list ->
  unit ->
  result
