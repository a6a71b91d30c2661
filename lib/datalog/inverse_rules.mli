(** Duschka-Genesereth inverse rules [14]: reconstruct Skolemized base
    relations from view extensions and answer queries with certain
    answers — the maximally-contained rewriting used by Corollary 5.2. *)

type view = {
  name : string;
  definition : Relational.Cq.t;  (** over base relations; head = variables *)
}

val view : string -> Relational.Cq.t -> view

(** The inverse rules of one view: one rule per body atom, existential
    variables replaced by Skolem terms over the view's head variables
    (shared across the body atoms). *)
val invert : view -> Dl.rule list

val program : view list -> Dl.t

(** Certain answers of a CQ over base relations, given only the view
    extensions. *)
val certain_answers :
  views:view list ->
  extensions:Relational.Database.t ->
  Relational.Cq.t ->
  Relational.Relation.t

(** View extensions materialized over a concrete base database (for
    validating maximal containment in tests). *)
val materialize :
  views:view list -> Relational.Database.t -> Relational.Database.t
