(** Unions of conjunctive queries with [<>] (the language UCQ of the paper). *)

type t

(** Raises [Invalid_argument] on an empty list or mixed arities. *)
val make : Cq.t list -> t

(** The empty union of the given arity: always evaluates to the empty
    relation. *)
val make_empty : int -> t

val of_cq : Cq.t -> t
val arity : t -> int
val disjuncts : t -> Cq.t list
val union : t -> t -> t
val eval : t -> Database.t -> Relation.t
val schema_of : t -> Schema.t

(** Complete containment test, including [<>] (Klug). *)
val contained_in : t -> t -> bool

val equivalent : t -> t -> bool

(** A database where the two unions disagree, with the separating tuple;
    [None] when equivalent. *)
val inequivalence_witness : t -> t -> (Database.t * Tuple.t) option

(** Remove contained disjuncts and minimize each remaining disjunct. *)
val minimize : t -> t

val rename : string -> t -> t
val pp : t Fmt.t
