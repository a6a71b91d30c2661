(** Composition synthesis CP(G, M, C) (Section 5): decide whether a
    mediator over the available components is equivalent to the goal, and
    construct one when it exists.

    - PL classes with MDT(∨) mediators reduce to the CGLV rewriting of the
      goal language over the components' minimal-prefix languages
      (Theorems 5.3(1, 2) and the machinery of 5.1(4, 5));
    - MDT_b(PL) is a bounded, exact search over boolean combinations of
      component chains (Theorem 5.3(3));
    - the nonrecursive CQ/UCQ case reduces to equivalent query rewriting
      using views and is reified back into operational mediators
      (Theorem 5.1(3), Corollary 5.2);
    - the undecidable rows get a bounded search that never claims
      completeness. *)

(** The language of a PL service: input sequences answered [true].
    Served from the service's memoized automata chain
    ({!Sws_pl.language_nfa}). *)
val pl_language_nfa : ?stats:Engine.Stats.t -> Sws_pl.t -> Automata.Nfa.t

(** Words accepted with no accepted proper prefix: how a component invoked
    by a mediator consumes input ("stop at the first final state"). *)
val minimal_prefix_nfa : Automata.Nfa.t -> Automata.Nfa.t

(** Least k such that membership is decided by the first k symbols
    (on the minimal DFA: depth-k states accept everything or nothing);
    [None] when no such k exists.  Theorem 5.1(4, 5). *)
val k_prefix_bound : Automata.Dfa.t -> int option

(** The trailing core [{ w | w · Σ* ⊆ L }]: the rewriting target for PL
    service goals, whose mediators keep their verdict under extra input. *)
val trailing_core_dfa : Automata.Dfa.t -> Automata.Dfa.t

val universal_nfa : int -> Automata.Nfa.t

type pl_composition = {
  mediator : Automata.Dfa.t;  (** over the component alphabet [0..m-1] *)
  component_names : string list;
  exact : bool;  (** equivalent, or merely maximally contained *)
}

(** Language-level synthesis for a regular goal (the Roman/NFA/DFA goals of
    Theorem 5.3(2)).  The exactness check runs on {!Automata.Lang}. *)
val compose_or_nfa :
  goal:Automata.Nfa.t ->
  components:(string * Automata.Nfa.t) list ->
  unit ->
  pl_composition option

(** CP(SWS(PL,PL), MDT(∨), SWS(PL,PL)) with the trailing-closure equation
    for service goals. *)
val compose_pl_or :
  goal:Sws_pl.t ->
  components:(string * Sws_pl.t) list ->
  unit ->
  pl_composition option

val compose_nfa_or :
  goal:Automata.Nfa.t ->
  components:(string * Automata.Nfa.t) list ->
  unit ->
  pl_composition option

(** Mediator plans for the bounded search: chains of component invocations
    combined by one boolean operation. *)
type plan =
  | Invoke of string
  | Chain of plan list
  | Union of plan * plan
  | Inter of plan * plan
  | Minus of plan * plan

val pp_plan : plan Fmt.t

(** The language a plan denotes, given each component's (minimal-prefix)
    language, kept nondeterministic: only [Minus] determinizes, and only
    its own operands. *)
val plan_language_nfa :
  env:(string * Automata.Nfa.t) list -> alphabet_size:int -> plan -> Automata.Nfa.t

(** A candidate plan's verdict on one word, from its chains' verdicts on
    it: [plan_accepts ~chain_accepts p] is [Nfa.accepts] of
    {!plan_language_nfa} [p] on the word when [chain_accepts c] is that
    of each chain [c] of [p]. *)
val plan_accepts : chain_accepts:(plan -> bool) -> plan -> bool

type bounded_result =
  | Found of plan
  | No_mediator_within_bound of Engine.exhausted
      (** the plan space or the budget ran out first *)

(** CP(·, MDT_b(PL), ·): exact language equivalence over the enumerated
    plan space.  The budget's depth is the chain-length bound (default 2,
    replacing the old [bound] integer); each candidate plan costs one
    budget node.  The goal is never determinized — each plan is checked
    by lazy product exploration on {!Automata.Lang}, and only if it agrees with the goal on every test word: the
    counterexamples that refuted earlier plans of the same call.  A plan
    that disagrees on one is refuted exactly (the word lies in the
    symmetric difference), so the answer and every [Exhausted] record are
    those of checking each plan in full. *)
val compose_mdtb :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  goal:Automata.Nfa.t ->
  components:(string * Automata.Nfa.t) list ->
  unit ->
  bounded_result

val compose_mdtb_pl :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  goal:Sws_pl.t ->
  components:(string * Sws_pl.t) list ->
  unit ->
  bounded_result

(** A query-shaped component (the SWS_nr(CQ^r) of Corollary 5.2): one
    state whose synthesis evaluates a fixed CQ over the local database. *)
val query_service : db_schema:Relational.Schema.t -> Relational.Cq.t -> Sws_data.t

type cq_composition = {
  rewriting : Relational.Ucq.t;  (** over the view vocabulary *)
  mediator_ops : Mediator.t list;  (** one operational mediator per disjunct *)
}

type cq_result =
  | Cq_composed of cq_composition
  | Cq_only_contained of Relational.Ucq.t
  | Cq_no_mediator

(** CP for a goal query over query-shaped components, via equivalent
    rewriting using views; [max_atoms] is the small-model bound of
    Theorem 5.1(3). *)
val compose_cq :
  ?max_atoms:int ->
  db_schema:Relational.Schema.t ->
  components:(string * Relational.Cq.t) list ->
  Relational.Ucq.t ->
  cq_result

type search_result =
  | Candidate of Mediator.t  (** agrees with the goal on all samples *)
  | None_within_bound of Engine.exhausted

(** Bounded mediator search for the undecidable rows of Table 2.  The
    budget governs each candidate's {!Mediator.equiv_check} (default:
    60 samples, replacing the old [samples] integer). *)
val compose_bounded_search :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  db_schema:Relational.Schema.t ->
  goal:Sws_data.t ->
  components:(string * Sws_data.t) list ->
  unit ->
  search_result
