(** The lazy language-decision engine: containment and equivalence of
    NFAs decided by on-the-fly product/subset exploration
    with antichain subsumption — the matching upper-bound technique for
    the EXPTIME lower bound on automata-game composition.

    The eager pipeline ([Dfa.of_nfa] then a DFA product) materializes the
    full subset automaton before asking the question; this engine explores
    pairs [(p, S)] of a left-automaton state and a right-automaton state
    set ({!Repr.Bitset}) breadth-first, pruning every pair whose right set
    is a superset of one already explored for the same [p] (rejection is
    antitone in the set, so the smaller set reaches every counterexample
    the larger one does).  On adversarial families (the k-th-symbol-from-
    the-end NFAs whose minimal DFA needs [2^k] states) the frontier stays
    polynomial where determinization walls out.

    This is the only NFA language engine; it serves composition, RPQ
    containment and regular rewriting.  The SWS(PL, PL) decisions do not
    use it: they explore each service's vector DFA on demand and search
    its state pairs ({!Dfa.Explorer.distinguishing_word}).  The two
    searches share one hook idiom ({!equivalent_cex}).  Full
    determinization and the DFA product ({!Dfa.of_nfa}, {!Dfa.diff}) are
    its test oracle, not an alternative to it.  Exploration is sequential and deterministic:
    verdicts and witness words are identical at every domain-pool size. *)

(** [contains_cex sup sub] decides [L(sub) <= L(sup)]: [None] when
    contained, [Some w] with [w] a shortest word of [L(sub) \ L(sup)]
    otherwise.  Raises [Invalid_argument] when the alphabets differ. *)
val contains_cex : Nfa.t -> Nfa.t -> int list option

val contains : Nfa.t -> Nfa.t -> bool

(** [equivalent_cex n1 n2]: [None] when the languages coincide, [Some w]
    with [w] accepted by exactly one of the two otherwise.  Containment
    is checked [L(n1) <= L(n2)] first, then the converse, so the witness
    is a shortest word of the first non-empty difference, not
    necessarily a shortest distinguishing word
    ({!Dfa.distinguishing_word} finds one of those on DFAs).

    [on_pair] runs once per expanded pair of either containment search,
    with the meaning it has in {!Dfa.Explorer.distinguishing_word}: the
    engine has no budget of its own, so a caller meters the search
    through the hook and stops it by raising, and the exception
    propagates.  A stopped search returns nothing, so it is never
    mistaken for a verdict. *)
val equivalent_cex :
  ?on_pair:(unit -> unit) -> Nfa.t -> Nfa.t -> int list option

val equivalent : Nfa.t -> Nfa.t -> bool

(** {1 Process-wide gauges}  Read at snapshot time by [Engine.Stats] and
    the server's telemetry registry, like the interner and bit-set
    gauges: no per-sink plumbing, monotone except {!antichain_peak}. *)

(** Product pairs expanded since process start. *)
val states_explored_total : unit -> int

(** Largest kept-pair count any single exploration reached. *)
val antichain_peak : unit -> int

(** Candidates pruned or retro-dropped by subsumption since start. *)
val subsumption_prunes_total : unit -> int
