(** Deterministic finite automata with complete transition matrices, the
    Roman-model service format and the normal form for PL equivalence. *)

type t

val create :
  alphabet_size:int -> start:int -> finals:int list -> trans:int array array -> t

val num_states : t -> int
val alphabet_size : t -> int
val start : t -> int
val finals : t -> int list
val is_final : t -> int -> bool
val delta : t -> int -> int -> int
val run : t -> int list -> int
val accepts : t -> int list -> bool
val complement : t -> t

(** Pair construction; [keep] decides finality of a pair. *)
val product : (bool -> bool -> bool) -> t -> t -> t

val inter : t -> t -> t
val union : t -> t -> t

(** [diff a b] accepts L(a) minus L(b). *)
val diff : t -> t -> t

val is_empty : t -> bool

(** Shortest accepted word, the non-emptiness witness. *)
val shortest_word : t -> int list option

(** [contains a b] iff L(b) is a subset of L(a). *)
val contains : t -> t -> bool

(** [contains_cex a b] is a shortest word of [L(b) \ L(a)]: [None] iff
    [contains a b].  The eager counterpart of [Lang.contains_cex]. *)
val contains_cex : t -> t -> int list option

val equivalent : t -> t -> bool

(** [distinguishing_word d1 d2] is a shortest word accepted by exactly
    one of the two, [None] when they are equivalent: a breadth-first
    search over the state pairs they reach on a common word.
    [on_level depth] runs before the pairs reached by words of length
    [depth - 1] are expanded, [on_pair] once per expanded pair; a caller
    meters the search through them and stops it by raising.  Raises
    [Invalid_argument] when the alphabets differ. *)
val distinguishing_word :
  ?on_level:(int -> unit) ->
  ?on_pair:(unit -> unit) ->
  t ->
  t ->
  int list option

(** Moore partition refinement over the reachable part. *)
val minimize : t -> t

val to_nfa : t -> Nfa.t

(** On-the-fly subset construction. *)
val of_nfa : Nfa.t -> t

val nfa_equivalent : Nfa.t -> Nfa.t -> bool

(** [nfa_contains a b] iff L(b) is a subset of L(a). *)
val nfa_contains : Nfa.t -> Nfa.t -> bool

(** [nfa_contains_cex a b] is a shortest word of [L(b) \ L(a)] found by
    full determinization; [None] iff [nfa_contains a b]. *)
val nfa_contains_cex : Nfa.t -> Nfa.t -> int list option

val pp : t Fmt.t
