(** Alternating finite automata with arbitrary Boolean transition conditions
    over states — the automaton model mirrored by [SWS(PL, PL)]
    (Theorem 4.1(3); Example 1.1 uses negated successor registers). *)

module Iset : Set.S with type elt = int

type form =
  | Ftrue
  | Ffalse
  | State of int
  | Fnot of form
  | Fand of form * form
  | For of form * form

val fconj : form list -> form
val fdisj : form list -> form
val eval_form : (int -> bool) -> form -> bool

type t

val create :
  alphabet_size:int -> start:int -> finals:int list -> delta:form array array -> t

val num_states : t -> int
val alphabet_size : t -> int
val start : t -> int
val finals : t -> int list
val delta : t -> int -> int -> form

(** Backward truth-vector evaluation: linear in [|w| * |delta|]. *)
val accepts : t -> int list -> bool

(** The DFA of the reversed language over reachable truth vectors,
    expanded on demand: a fresh explorer, private to the caller. *)
val explore : t -> Dfa.Explorer.t

(** {!explore}, forced: every reachable truth vector, ids in
    breadth-first order. *)
val reverse_vector_dfa : t -> Dfa.t

val to_nfa : t -> Nfa.t

(** On-the-fly emptiness over reachable truth vectors. *)
val is_empty : t -> bool

(** A shortest accepted word, explored on the fly. *)
val shortest_word : t -> int list option
val of_nfa : Nfa.t -> t
val pp_form : form Fmt.t
val pp : t Fmt.t
