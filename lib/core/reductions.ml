(* Executable lower-bound reductions from the proofs of Theorem 4.1.  Each
   function maps an instance of the source problem to an SWS whose decision
   problem answers it, so the hardness arguments can be exercised on
   concrete instances (and benchmarked: the reductions are what the Table 1
   lower-bound workloads are made of).

   Implemented:
   - SAT            -> non-emptiness of SWS_nr(PL, PL)      (Thm 4.1(3))
   - AFA emptiness  -> non-emptiness of SWS(PL, PL)         (Thm 4.1(3);
     AFA emptiness is PSPACE-complete [32])
   - linear sirups  -> non-emptiness of SWS(CQ, UCQ)        (Thm 4.1(2);
     the Gottlob-Papadimitriou EXPTIME problem [19] — the construction
     below covers sirups whose rule is linear in the IDB predicate)
   - FO satisfiability -> non-emptiness of SWS_nr(FO, FO)   (Thm 4.1(1))

   The remaining reductions in the paper (Q3SAT, NTM and 2-head-machine
   encodings) establish bounds whose source problems are not executable
   artifacts; DESIGN.md records the substitution. *)

module R = Relational
module Prop = Proplogic.Prop
module Afa = Automata.Afa

(* ------------------------------------------------------------------ *)
(* SAT -> SWS_nr(PL, PL) non-emptiness                                 *)
(* ------------------------------------------------------------------ *)

(* A single final state evaluating the formula on its first input message:
   the service answers true on some input sequence iff f is satisfiable. *)
let sws_of_sat f =
  Sws_pl.make ~input_vars:(Prop.vars f) ~start:"q0"
    ~rules:[ ("q0", { Sws_def.succs = []; synth = f }) ]

(* ------------------------------------------------------------------ *)
(* AFA emptiness -> SWS(PL, PL) non-emptiness                          *)
(* ------------------------------------------------------------------ *)

(* The converse of reading a service as an AFA (Sws_pl.explore).  Input words
   are one-hot letter assignments followed by the doubled end marker (as in
   the Roman encoding).  For each AFA state q the SWS state "q<i>" has:

   - per alphabet symbol a, an indicator successor ind<a> whose register
     records "the current input is a" (a final state copying its message);
   - per symbol a and each state q' occurring in delta(q, a), a successor
     (q'<...>, phi = s_a): its action is V(q') gated by "input = a";
   - when q is an AFA final state, a successor fin checking the end marker.

   The synthesis of q is then
       \/_a ( ind_a /\ delta(q, a)[ q' |-> act of (q', a) ] )  \/  fin,
   which under the one-hot input discipline evaluates exactly the AFA's
   backward truth recurrence. *)
let state_name q = Printf.sprintf "q%d" q
let ind_name a = Printf.sprintf "ind%d" a
let letter_var a = Printf.sprintf "s%d" a
let end_var = "#end"

let sws_of_afa afa =
  let k = Afa.alphabet_size afa in
  let input_vars = List.init k letter_var @ [ end_var ] in
  let finals = Afa.finals afa in
  let module Iset = Set.Make (Int) in
  let rec states_of_form acc = function
    | Afa.Ftrue | Afa.Ffalse -> acc
    | Afa.State q -> Iset.add q acc
    | Afa.Fnot f -> states_of_form acc f
    | Afa.Fand (f, g) | Afa.For (f, g) -> states_of_form (states_of_form acc f) g
  in
  (* successors of SWS state for AFA state q, in a fixed order, with the
     position of each child recorded so the synthesis can name its act *)
  let rule_of q =
    let per_symbol =
      List.map
        (fun a ->
          let used = Iset.elements (states_of_form Iset.empty (Afa.delta afa q a)) in
          (a, used))
        (List.init k Fun.id)
    in
    let succs =
      List.concat_map
        (fun (a, used) ->
          (ind_name a, Prop.Var (letter_var a))
          :: List.map (fun q' -> (state_name q', Prop.Var (letter_var a))) used)
        per_symbol
      @ (if List.mem q finals then [ ("fin", Prop.Var end_var) ] else [])
    in
    (* synthesis: walk the same successor structure, consuming act
       positions in lockstep with [succs] *)
    let synth =
      let pos = ref (-1) in
      let next () =
        incr pos;
        Prop.Var (Sws_pl.act_var !pos)
      in
      let disjuncts =
        List.map
          (fun (a, used) ->
            let ind_act = next () in
            let env = List.map (fun q' -> (q', next ())) used in
            let rec embed = function
              | Afa.Ftrue -> Prop.True
              | Afa.Ffalse -> Prop.False
              | Afa.State q' -> List.assoc q' env
              | Afa.Fnot f -> Prop.Not (embed f)
              | Afa.Fand (f, g) -> Prop.And (embed f, embed g)
              | Afa.For (f, g) -> Prop.Or (embed f, embed g)
            in
            Prop.And (ind_act, embed (Afa.delta afa q a)))
          per_symbol
      in
      let fin_disjunct =
        if List.mem q finals then [ next () ] else []
      in
      Prop.disj (disjuncts @ fin_disjunct)
    in
    { Sws_def.succs; synth }
  in
  let ind_rule = { Sws_def.succs = []; synth = Prop.Var Sws_pl.msg_var } in
  let state_rules =
    List.map (fun q -> (state_name q, rule_of q)) (List.init (Afa.num_states afa) Fun.id)
  in
  let root_rule = rule_of (Afa.start afa) in
  Sws_pl.make ~input_vars ~start:"root"
    ~rules:
      (("root", root_rule)
      :: ("fin", ind_rule)
      :: List.map (fun a -> (ind_name a, ind_rule)) (List.init k Fun.id)
      @ state_rules)

let encode_afa_word word =
  List.map (fun a -> Prop.assignment_of_list [ letter_var a ]) word
  @ [ Prop.assignment_of_list [ end_var ]; Prop.assignment_of_list [ end_var ] ]

(* ------------------------------------------------------------------ *)
(* Linear sirups -> SWS(CQ, UCQ) non-emptiness                         *)
(* ------------------------------------------------------------------ *)

(* Backward chaining for a linear same-generation sirup with concrete edge
   set E and seed/goal facts baked into the rules as constants: the
   recursive state carries the current subgoal set in its message register,
   one successor per edge pair performs one resolution step, and a final
   checker succeeds when a subgoal matches the seed.  The service's output
   is nonempty (for some input length) iff the sirup derives its goal. *)
let sws_of_sg_sirup ~edges ~seed ~goal =
  let open R in
  let v = Term.var and c = Term.const in
  let cq ?eqs ?neqs head body = Cq.make ?eqs ?neqs ~head ~body () in
  let copy = Sws_data.Q_cq (cq [ v "x"; v "y" ] [ Atom.make Sws_data.msg_rel [ v "x"; v "y" ] ]) in
  (* one backward resolution step per pair of edges (x -> u, y -> v):
     subgoal (x, y) spawns subgoal (u, v) *)
  let step_succs =
    List.concat_map
      (fun (x, u) ->
        List.map
          (fun (y, vv) ->
            ( "qs",
              Sws_data.Q_cq
                (cq [ c u; c vv ] [ Atom.make Sws_data.msg_rel [ c x; c y ] ]) ))
          edges)
      edges
  in
  let check =
    let sx, sy = seed in
    Sws_data.Q_cq
      (cq
         ~eqs:[ (v "x", c sx); (v "y", c sy) ]
         [ v "x"; v "y" ]
         [ Atom.make Sws_data.msg_rel [ v "x"; v "y" ] ])
  in
  let union_synth n =
    Sws_data.Q_ucq
      (Ucq.make
         (List.init n (fun i ->
              cq [ v "x"; v "y" ] [ Atom.make (Sws_data.act_rel i) [ v "x"; v "y" ] ])))
  in
  let gx, gy = goal in
  let inject_goal =
    Sws_data.Q_cq (cq [ c gx; c gy ] [ Atom.make Sws_data.in_rel [ v "z1"; v "z2" ] ])
  in
  let qs_succs = step_succs @ [ ("qc", copy) ] in
  Sws_data.make ~db_schema:Schema.empty ~in_arity:2 ~out_arity:2 ~start:"q0"
    ~rules:
      [
        ("q0", { Sws_def.succs = [ ("qs", inject_goal) ]; synth = union_synth 1 });
        ("qs", { Sws_def.succs = qs_succs; synth = union_synth (List.length qs_succs) });
        ("qc", { Sws_def.succs = []; synth = check });
      ]

(* Reference answer by bottom-up datalog, for cross-checking the reduction:
   does the same-generation sirup with [edges], seed and goal accept? *)
let sg_derives ~edges ~seed ~goal =
  let open R in
  let schema = Schema.of_list [ ("e", 2); ("sg", 2) ] in
  let db =
    List.fold_left
      (fun db (u, v) -> Database.add_tuple "e" (Tuple.of_list [ u; v ]) db)
      (Database.empty schema) edges
  in
  let db = Database.add_tuple "sg" (Tuple.of_list [ fst seed; snd seed ]) db in
  let rule =
    Datalog.Dl.plain_rule "sg"
      [ Term.var "x"; Term.var "y" ]
      [
        Atom.make "e" [ Term.var "x"; Term.var "u" ];
        Atom.make "sg" [ Term.var "u"; Term.var "v" ];
        Atom.make "e" [ Term.var "y"; Term.var "v" ];
      ]
  in
  let result = Datalog.Seminaive.eval (Datalog.Dl.make [ rule ]) db in
  Relation.mem (Tuple.of_list [ fst goal; snd goal ]) (Database.find "sg" result)

(* ------------------------------------------------------------------ *)
(* FO satisfiability -> SWS_nr(FO, FO) non-emptiness                   *)
(* ------------------------------------------------------------------ *)

(* A single final state whose synthesis holds iff the sentence does: the
   service can act at all iff the sentence has a (finite) model — the
   Trakhtenbrot-style undecidability of Theorem 4.1(1). *)
let sws_of_fo_sentence ~db_schema sentence =
  Sws_data.make ~db_schema ~in_arity:1 ~out_arity:0 ~start:"q0"
    ~rules:
      [
        ( "q0",
          { Sws_def.succs = []; synth = Sws_data.Q_fo (R.Fo.query [] sentence) } );
      ]
