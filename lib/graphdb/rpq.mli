(** (2-way) regular path queries: regular expressions over the doubled
    label alphabet, computing the node pairs connected by a matching path
    (Section 5.2). *)

module Iset : Set.S with type elt = int and type t = Set.Make(Int).t

type t

(** The regex ranges over the doubled alphabet: [0..k-1] forward labels,
    [k..2k-1] their inverses. *)
val make : num_labels:int -> Automata.Regex.t -> t

val regex : t -> Automata.Regex.t
val num_labels : t -> int

val forward : int -> Automata.Regex.t
val backward : num_labels:int -> int -> Automata.Regex.t
val to_nfa : t -> Automata.Nfa.t

(** Product-automaton reachability from one source node. *)
val eval_from : Lgraph.t -> t -> int -> Iset.t

(** All (source, target) pairs. *)
val eval : Lgraph.t -> t -> (int * int) list

(** Containment over all graphs = language containment, decided on
    {!Automata.Lang}. *)
val contained_in : t -> t -> bool

val equivalent : t -> t -> bool
val pp : t Fmt.t
