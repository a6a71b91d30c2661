(** Conjunctive queries with equality and inequality (the language CQ of the
    paper, Section 2).

    Equalities are normalized away at construction.  Containment in the
    presence of [<>] uses Klug's partition technique and is complete. *)

type t = private {
  head : Term.t list;
  body : Atom.t list;
  neqs : (Term.t * Term.t) list;
}

exception Unsatisfiable
(** Raised by {!make} when the equalities identify two distinct constants. *)

exception Unsafe of string
(** Raised by {!make} when a head or inequality variable is not bound by the
    body. *)

val make :
  ?eqs:(Term.t * Term.t) list ->
  ?neqs:(Term.t * Term.t) list ->
  head:Term.t list ->
  body:Atom.t list ->
  unit ->
  t

val head_arity : t -> int
val vars : t -> string list
val constants : t -> Value.t list

(** Prefix every variable name; used to rename queries apart. *)
val rename : string -> t -> t

(** Substitute variables by terms throughout head, body and inequalities. *)
val apply_var_subst : Term.t Map.Make(String).t -> t -> t

(** Schema induced by the body atoms. *)
val schema_of : t -> Schema.t

(** All satisfying valuations of the body over [db].  The join is greedy
    sideways-information-passing (expand the atom with the most bound
    variables, ties towards smaller relations) answered by hash-index probes
    against the database's {!Index} store. *)
val eval_substs : t -> Database.t -> Subst.t list

(** The answer relation of the query over [db]. *)
val eval : t -> Database.t -> Relation.t

(** Remove exactly the first (physical) occurrence of the atom.  Exposed for
    white-box regression testing of the join loop's atom bookkeeping: a
    duplicated body atom must be consumed one occurrence at a time. *)
val remove_one_atom : Atom.t -> Atom.t list -> Atom.t list

(** Freeze variables to labelled nulls (Chandra-Merlin canonical database
    valuation).  [supply] defaults to a private supply per call; pass a
    shared one when canonical databases from several freezes are merged. *)
val freeze : ?supply:Value.Fresh.supply -> t -> Subst.t * t

(** [ground_under ~schema subst q] is the canonical database of [q] under the
    valuation [subst], together with the frozen head tuple. *)
val ground_under : schema:Schema.t -> Subst.t -> t -> Database.t * Tuple.t

(** All valuations arising from partitions of the query's variables consistent
    with its inequalities (Klug's test set).  [supply] as in {!freeze}. *)
val partitions : ?supply:Value.Fresh.supply -> t -> Subst.t list

(** [contained_in_many q qs]: is [q] contained in the union of [qs]?
    Complete for CQs with [<>]. *)
val contained_in_many : t -> t list -> bool

val contained_in : t -> t -> bool

(** A canonical database on which the query produces a tuple that none of
    [qs] does; [None] when containment holds. *)
val non_containment_witness :
  t -> t list -> (Database.t * Tuple.t) option

(** Single-canonical-database test: sound, complete only without [<>].
    Exposed for the containment ablation. *)
val contained_in_frozen_only : t -> t -> bool

val equivalent : t -> t -> bool

(** Drop redundant body atoms while preserving equivalence (the core). *)
val minimize : t -> t

val pp : t Fmt.t
