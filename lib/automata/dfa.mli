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

(** [diff a b] accepts L(a) minus L(b). *)
val diff : t -> t -> t

val is_empty : t -> bool

(** {1 Lazily expanded DFAs} *)

(** A DFA whose rows are computed when a search first reads them.  A
    state gets its id and its finality when it is discovered, its row
    only when it is expanded; an eager {!t} is the explorer whose rows
    are all there.  An explorer is mutable and belongs to one caller. *)
module Explorer : sig
  type dfa := t
  type t

  (** The explorer over bit-set states reachable from [start]:
      [step key] gives a state's successors by symbol, [final key] its
      finality.  Ids are handed out in discovery order, [start] is 0. *)
  val create :
    alphabet_size:int ->
    start:Repr.Bitset.t ->
    final:(Repr.Bitset.t -> bool) ->
    step:(Repr.Bitset.t -> Repr.Bitset.t array) ->
    t

  (** The eager DFA as an explorer: every row is already there. *)
  val of_dfa : dfa -> t

  (** Rows computed by [step] so far. *)
  val rows_computed : t -> int

  (** Computes every row in id order and returns the eager DFA.  A fresh
      explorer's ids are then those of a breadth-first construction. *)
  val force : t -> dfa

  (** Shortest accepted word, by breadth-first search: the first final
      state in discovery order. *)
  val shortest_word : t -> int list option

  (** [distinguishing_word x1 x2] is a shortest word accepted by exactly
      one of the two, [None] when they are equivalent: a breadth-first
      search over the state pairs they reach on a common word, expanding
      a level's pairs in discovery order and symbols in ascending order,
      so the witness does not depend on state ids.  [on_level depth]
      runs before the pairs reached by words of length [depth - 1] are
      expanded, [on_pair] once per expanded pair; a caller meters the
      search through them and stops it by raising.  Raises
      [Invalid_argument] when the alphabets differ. *)
  val distinguishing_word :
    ?on_level:(int -> unit) ->
    ?on_pair:(unit -> unit) ->
    t ->
    t ->
    int list option
end

(** Shortest accepted word, the non-emptiness witness
    ({!Explorer.shortest_word} of {!Explorer.of_dfa}). *)
val shortest_word : t -> int list option

(** {!Explorer.distinguishing_word} on two eager DFAs. *)
val distinguishing_word :
  ?on_level:(int -> unit) ->
  ?on_pair:(unit -> unit) ->
  t ->
  t ->
  int list option

(** Moore partition refinement over the reachable part. *)
val minimize : t -> t

val to_nfa : t -> Nfa.t

(** Subset construction: {!Explorer.force} of the explorer over the
    eps-closed state sets of the NFA, so the DFA holds the reachable
    subsets only, numbered breadth-first.  {!Explorer} is the one subset
    search: a question that may stop early ({!Explorer.shortest_word},
    {!Explorer.distinguishing_word}) runs on an unforced explorer
    instead.  Sequential at every job count: the one parallel grain is
    the request ([Par.Pool]). *)
val of_nfa : Nfa.t -> t

val pp : t Fmt.t
