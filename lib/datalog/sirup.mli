(** Single-rule datalog programs (sirups): one ground fact, one rule, one
    goal fact.  Goal acceptance is EXPTIME-complete
    (Gottlob-Papadimitriou [19]); Theorem 4.1(2) reduces it to
    SWS(CQ, UCQ) non-emptiness. *)

type t

val make :
  fact:string * Relational.Tuple.t ->
  rule:Dl.rule ->
  goal:string * Relational.Tuple.t ->
  t

val program : t -> Dl.t

(** Does the sirup derive its goal?  Decided bottom-up. *)
val accepts : t -> bool

(** A scalable same-generation instance family over a random edge set (the
    Table 1 EXPTIME workload): returns the sirup and its edges. *)
val same_generation :
  Random.State.t ->
  num_nodes:int ->
  num_edges:int ->
  t * (Relational.Value.t * Relational.Value.t) list

val accepts_with_edges :
  t * (Relational.Value.t * Relational.Value.t) list -> bool
