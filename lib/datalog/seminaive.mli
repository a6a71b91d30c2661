(** Bottom-up datalog evaluation: the semi-naive fixpoint.  Each rule body
    is joined by {!Relational.Cq.eval_substs}. *)

(** The least fixpoint over the EDB: the returned database contains both
    the EDB and the derived IDB relations. *)
val eval : Dl.t -> Relational.Database.t -> Relational.Database.t

(** The goal relation with Skolem-carrying tuples dropped: certain answers
    only (the inverse-rules use). *)
val certain_answers :
  Dl.t -> Relational.Database.t -> string -> Relational.Relation.t
