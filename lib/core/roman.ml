(* The Roman model [6] and its SWS encodings (Section 3).

   A Roman-model service is a DFA (an NFA for composite services) over an
   alphabet of actions; a string is legal iff it drives the automaton to a
   final state.  The paper's encoding f_tau produces an SWS(PL, PL): one SWS
   state per automaton state plus a final collector qf reached on a session
   delimiter '#', with disjunctive synthesis; f_I augments the string with
   the delimiter.

   One timing detail: rule (1) of the run relation halts any node whose
   timestamp exceeds the input length with an *empty* action register, so the
   node that evaluates qf's synthesis must sit at a timestamp <= n.  The
   encoder therefore appends the delimiter twice: the first '#' routes into
   qf, the second is the padding message that keeps qf's timestamp within
   the sequence.  No other node can exploit the padding: all letter
   indicators are false on it. *)

module Prop = Proplogic.Prop
module Dfa = Automata.Dfa
module Nfa = Automata.Nfa
module R = Relational

let letter_var a = Printf.sprintf "s%d" a
let end_var = "#end"

let state_name q = Printf.sprintf "q%d" q
let collector = "qf"
let root = "root"

(* f_tau for an NFA (a DFA being a special case): SWS(PL, PL).  The
   encoding reads one letter per transition rule, so epsilon transitions
   are removed up front. *)
let to_sws_pl nfa =
  let nfa = Nfa.eps_free nfa in
  let k = Nfa.alphabet_size nfa in
  let input_vars = List.init k letter_var @ [ end_var ] in
  let finals = Nfa.Iset.of_list (Nfa.finals nfa) in
  (* State names and letter indicators, made once and shared by every
     rule that mentions them. *)
  let names = Array.init (Nfa.num_states nfa) state_name in
  let letters = Array.init k (fun a -> Prop.Var (letter_var a)) in
  let succs_of q =
    let letter_succs =
      List.concat_map
        (fun a ->
          List.map
            (fun q' -> (names.(q'), letters.(a)))
            (Nfa.Iset.elements (Nfa.successors nfa q a)))
        (List.init k Fun.id)
    in
    if Nfa.Iset.mem q finals then
      letter_succs @ [ (collector, Prop.Var end_var) ]
    else letter_succs
  in
  let rule_of succs =
    let synth =
      match succs with
      | [] -> Prop.False (* dead end, never legal *)
      | _ -> Prop.disj (List.mapi (fun i _ -> Prop.Var (Sws_pl.act_var i)) succs)
    in
    { Sws_def.succs; synth }
  in
  let rules = Array.init (Nfa.num_states nfa) (fun q -> rule_of (succs_of q)) in
  let state_rules = Array.to_list (Array.mapi (fun q r -> (names.(q), r)) rules) in
  (* A fresh start that unions all NFA start states: Definition 2.1 forbids
     the start state in any rhs. *)
  let root_rule =
    rule_of (List.concat_map (fun q -> rules.(q).Sws_def.succs) (Nfa.starts nfa))
  in
  let collector_rule = { Sws_def.succs = []; synth = Prop.Var Sws_pl.msg_var } in
  Sws_pl.make ~input_vars ~start:root
    ~rules:((root, root_rule) :: (collector, collector_rule) :: state_rules)

(* f_I: one-hot letter assignments followed by the doubled delimiter. *)
let encode_input word =
  List.map (fun a -> Prop.assignment_of_list [ letter_var a ]) word
  @ [ Prop.assignment_of_list [ end_var ]; Prop.assignment_of_list [ end_var ] ]

let dfa_to_sws_pl dfa = to_sws_pl (Dfa.to_nfa dfa)

(* Witness words as compact strings: messages are assignments over the
   input variables, rendered one char each — 'a'+i for the one-hot mask
   of variable i ('#' when that variable is the session delimiter), '.'
   for the all-false padding message, '?' for anything else. *)
let word_string sws w =
  let vars = Array.of_list (Sws_pl.input_vars sws) in
  let char_of a =
    match Sws_pl.symbol_of_assignment sws a with
    | 0 -> '.'
    | mask when mask land (mask - 1) = 0 ->
      let i = ref 0 in
      while mask lsr !i > 1 do
        incr i
      done;
      if !i < Array.length vars && vars.(!i) = end_var then '#'
      else if !i < 26 then Char.chr (Char.code 'a' + !i)
      else '?'
    | _ -> '?'
  in
  String.of_seq (Seq.map char_of (List.to_seq w))

(* ------------------------------------------------------------------ *)
(* The SWS(CQ, UCQ) variant                                            *)
(* ------------------------------------------------------------------ *)

(* Section 3 also notes a data-driven encoding in SWS(CQ, UCQ) that defers
   commitment: the output is empty when the string is rejected and nonempty
   (the delimiter tuple) when accepted.  R_in is unary: each input message
   carries the current letter as a tagged value. *)
let letter_value a = R.Value.str (Printf.sprintf "l%d" a)
let end_value = R.Value.str "#"

let to_sws_cq nfa =
  let open R in
  let nfa = Nfa.eps_free nfa in
  let k = Nfa.alphabet_size nfa in
  let select_tag v =
    (* ans('v') :- in('v') *)
    Sws_data.Q_cq
      (Cq.make
         ~head:[ Term.const v ]
         ~body:[ Atom.make Sws_data.in_rel [ Term.const v ] ]
         ())
  in
  let copy_msg =
    (* ans(x) :- msg(x) *)
    Sws_data.Q_cq
      (Cq.make
         ~head:[ Term.var "x" ]
         ~body:[ Atom.make Sws_data.msg_rel [ Term.var "x" ] ]
         ())
  in
  let finals = Nfa.Iset.of_list (Nfa.finals nfa) in
  let succs_of q =
    let letter_succs =
      List.concat_map
        (fun a ->
          List.map
            (fun q' -> (state_name q', select_tag (letter_value a)))
            (Nfa.Iset.elements (Nfa.successors nfa q a)))
        (List.init k Fun.id)
    in
    if Nfa.Iset.mem q finals then
      letter_succs @ [ (collector, select_tag end_value) ]
    else letter_succs
  in
  let union_synth succs =
    match succs with
    | [] ->
      (* unsatisfiable CQ: empty output at dead ends *)
      Sws_data.Q_cq
        (Cq.make
           ~neqs:[ (Term.var "x", Term.var "x") ]
           ~head:[ Term.var "x" ]
           ~body:[ Atom.make Sws_data.msg_rel [ Term.var "x" ] ]
           ())
    | _ ->
      Sws_data.Q_ucq
        (Ucq.make
           (List.mapi
              (fun i _ ->
                Cq.make
                  ~head:[ Term.var "x" ]
                  ~body:[ Atom.make (Sws_data.act_rel i) [ Term.var "x" ] ]
                  ())
              succs))
  in
  let rule_of q =
    let succs = succs_of q in
    { Sws_def.succs; synth = union_synth succs }
  in
  let state_rules =
    List.map (fun q -> (state_name q, rule_of q)) (List.init (Nfa.num_states nfa) Fun.id)
  in
  let root_succs = List.concat_map (fun q -> (rule_of q).Sws_def.succs) (Nfa.starts nfa) in
  let root_rule = { Sws_def.succs = root_succs; synth = union_synth root_succs } in
  let collector_rule = { Sws_def.succs = []; synth = copy_msg } in
  Sws_data.make ~db_schema:Schema.empty ~in_arity:1 ~out_arity:1 ~start:root
    ~rules:((root, root_rule) :: (collector, collector_rule) :: state_rules)

let encode_input_cq word =
  let msg v = R.Relation.singleton (R.Tuple.of_list [ v ]) in
  List.map (fun a -> msg (letter_value a)) word
  @ [ msg end_value; msg end_value ]
