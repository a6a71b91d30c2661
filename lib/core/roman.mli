(** The Roman model [6] and its SWS encodings (Section 3).

    A Roman-model service is a DFA (NFA for composites) over an action
    alphabet; a string is legal iff it reaches a final state.  [f_tau]
    produces an SWS; [f_I] ("encode") augments the string with the session
    delimiter.  The delimiter is doubled: rule (1) of the run relation
    empties nodes whose timestamp exceeds the input length, so the
    collector state needs one padding message to synthesize. *)

(** One-hot input variable for alphabet letter [a]. *)
val letter_var : int -> string

(** The delimiter variable ["#end"]. *)
val end_var : string

(** f_tau into SWS(PL, PL).  Epsilon transitions are removed first. *)
val to_sws_pl : Automata.Nfa.t -> Sws_pl.t

val dfa_to_sws_pl : Automata.Dfa.t -> Sws_pl.t

(** f_I: one-hot letter assignments plus the doubled delimiter. *)
val encode_input : int list -> Proplogic.Prop.assignment list

(** A witness word of [sws] as a compact string, one char per message:
    ['a'+i] for the one-hot assignment of input variable [i], ['#'] when
    that variable is {!end_var}, ['.'] for the all-false padding message
    and ['?'] for anything else.  The rendering of [swsd] replies and
    [swscli] output. *)
val word_string : Sws_pl.t -> Proplogic.Prop.assignment list -> string

(** The data-driven variant in SWS(CQ, UCQ): output is empty iff the
    string is rejected (deferred commitment, Section 3). *)
val to_sws_cq : Automata.Nfa.t -> Sws_data.t

val encode_input_cq : int list -> Relational.Relation.t list
