(** The decision problems of Section 4 — non-emptiness, validation and
    equivalence — for every class of Table 1.

    Decidable cells run the exact algorithms from Theorem 4.1's proofs;
    undecidable cells get bounded semi-procedures that report a structured
    {!Engine.exhausted} rather than guess.  Positive answers carry
    machine-checkable witnesses.

    Every bounded procedure takes its limits from one shared
    {!Engine.Budget.t} (replacing the old per-procedure [max_n] integers)
    and counts work into an {!Engine.Stats.t} sink (default: the global
    sink).  Budgets are enforced between input lengths, never mid-length,
    so decisive [No] / [Equivalent] answers always reflect a complete
    search of every length they cover. *)

type 'w outcome =
  | Yes of 'w   (** with a witness *)
  | No          (** decisively not (only from complete procedures) *)
  | Exhausted of Engine.exhausted
      (** the budget or the candidate space ran out first *)

type 'c equiv_outcome =
  | Equivalent
  | Inequivalent of 'c  (** with a distinguishing input *)
  | Equiv_exhausted of Engine.exhausted

(** {1 SWS(PL, PL) — automata-based (pspace cells)}

    All three questions are answered by breadth-first search on each
    service's vector DFA ({!Sws_pl.explore}), so every
    witness is a shortest one.  Each question explores a fresh vector
    DFA on demand: only the truth vectors its search reaches get rows.
    Validation with [output = false] and equivalence respect [budget]
    ([max_nodes] meters expanded state pairs, [max_depth] witness
    length, checked per search level, so the budget also bounds the
    vector-DFA work), reporting [Exhausted] when it trips.  Results are cached under the
    budget-monotonicity rule. *)

val pl_non_emptiness :
  ?stats:Engine.Stats.t -> Sws_pl.t -> Proplogic.Prop.assignment list outcome

(** For PL the output is one truth value; [output = true] coincides with
    non-emptiness (as Section 4 remarks), [output = false] asks for a
    shortest rejected sequence. *)
val pl_validation :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  Sws_pl.t ->
  output:bool ->
  Proplogic.Prop.assignment list outcome

(** Language equivalence of the AFA translations, with a shortest
    distinguishing sequence when they differ.  The services must declare
    the same input variables. *)
val pl_equivalence :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  Sws_pl.t ->
  Sws_pl.t ->
  Proplogic.Prop.assignment list equiv_outcome

(** {1 SWS_nr(PL, PL) — SAT-based (np / conp cells)} *)

val pl_nr_non_emptiness :
  ?stats:Engine.Stats.t -> Sws_pl.t -> Proplogic.Prop.assignment list outcome

val pl_nr_validation :
  ?stats:Engine.Stats.t ->
  Sws_pl.t ->
  output:bool ->
  Proplogic.Prop.assignment list outcome

val pl_nr_equivalence :
  ?stats:Engine.Stats.t ->
  Sws_pl.t ->
  Sws_pl.t ->
  Proplogic.Prop.assignment list equiv_outcome

(** {1 SWS(CQ, UCQ) — via the UCQ unfolding} *)

(** Canonical-database search over the unfolding; complete (hence [No] is
    decisive) for nonrecursive services, a budget-bounded semi-procedure
    otherwise (default budget: 6 input lengths). *)
val cq_non_emptiness :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  Sws_data.t ->
  (Relational.Database.t * Relational.Relation.t list * Relational.Tuple.t)
  outcome

(** Small-model search assembling canonical databases per output tuple;
    sound, complete on the canonical candidate space (default budget for
    recursive services: 4 input lengths).  [max_assignments] bounds the
    candidate space itself, not the scan, and so stays a plain integer.
    Each candidate database re-evaluates the unfolding with
    {!Relational.Ucq.eval}. *)
val cq_validation :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  ?max_assignments:int ->
  Sws_data.t ->
  output:Relational.Relation.t ->
  (Relational.Database.t * Relational.Relation.t list) outcome

(** Klug-complete containment of the unfoldings at every input length up
    to the stabilization bound; decisive for nonrecursive services
    (default budget for recursive pairs: 4 input lengths).  The
    counterexample is a concrete (D, I) plus the output tuple the two
    services disagree on. *)
val cq_equivalence :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  Sws_data.t ->
  Sws_data.t ->
  (Relational.Database.t * Relational.Relation.t list * Relational.Tuple.t)
  equiv_outcome

(** {1 SWS(FO, FO) — bounded semi-procedures (undecidable row)}

    [max_dom] / [max_pool] bound the finite-model search space (semantic
    candidate bounds, kept as integers); the scan over input lengths is
    governed by [budget] (defaults: 3 / 2 / 3 lengths). *)

val fo_non_emptiness :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  ?max_dom:int ->
  ?max_pool:int ->
  Sws_data.t ->
  (Relational.Database.t * Relational.Relation.t list) outcome

val fo_equivalence :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  ?max_dom:int ->
  ?max_pool:int ->
  Sws_data.t ->
  Sws_data.t ->
  (Relational.Database.t * Relational.Relation.t list) equiv_outcome

val fo_validation :
  ?stats:Engine.Stats.t ->
  ?budget:Engine.Budget.t ->
  ?max_dom:int ->
  ?max_pool:int ->
  Sws_data.t ->
  output:Relational.Relation.t ->
  (Relational.Database.t * Relational.Relation.t list) outcome
