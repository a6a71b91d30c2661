(* Tests for the Table 1 decision procedures: exact algorithms for the
   decidable cells, honest Unknowns for the undecidable ones, and the
   cross-check that SAT-based nonrecursive procedures agree with the
   automata-based ones. *)

module R = Relational
module Prop = Proplogic.Prop
module Term = R.Term
module Atom = R.Atom
module Relation = R.Relation
open Sws

let check = Alcotest.(check bool)
let v = Prop.var

let final synth = { Sws_def.succs = []; synth }

(* Reusable PL services. *)
let sat_service f = Reductions.sws_of_sat f

let contradiction = Prop.And (v "x", Prop.Not (v "x"))
let tautology_ish = Prop.Or (v "x", Prop.Not (v "x"))

let test_pl_non_emptiness () =
  (match Decision.pl_non_emptiness (sat_service (Prop.And (v "x", v "y"))) with
  | Decision.Yes w ->
    check "witness runs true" true (Sws_pl.run (sat_service (Prop.And (v "x", v "y"))) w)
  | _ -> Alcotest.fail "expected Yes");
  check "contradiction empty" true
    (Decision.pl_non_emptiness (sat_service contradiction) = Decision.No)

let test_pl_validation () =
  check "true = nonempt" true
    (match Decision.pl_validation (sat_service tautology_ish) ~output:true with
    | Decision.Yes _ -> true
    | _ -> false);
  (* output false: the empty sequence is always rejected *)
  (match Decision.pl_validation (sat_service tautology_ish) ~output:false with
  | Decision.Yes w -> check "rejected witness" false (Sws_pl.run (sat_service tautology_ish) w)
  | _ -> Alcotest.fail "expected Yes")

let test_pl_equivalence () =
  let s1 = sat_service (Prop.Or (v "x", v "y")) in
  let s2 = sat_service (Prop.Or (v "y", v "x")) in
  check "commuted or" true (Decision.pl_equivalence s1 s2 = Decision.Equivalent);
  (* mention y vacuously so the services share their input vocabulary *)
  let s3 = sat_service (Prop.Or (v "x", Prop.And (v "y", Prop.Not (v "y")))) in
  (match Decision.pl_equivalence s1 s3 with
  | Decision.Inequivalent w ->
    check "counterexample distinguishes" true
      (Sws_pl.run s1 w <> Sws_pl.run s3 w)
  | _ -> Alcotest.fail "expected counterexample")

(* SWS(PL, PL) witnesses against brute force over every input sequence of
   up to [bound] messages, run through the services' own semantics: an
   equivalence witness distinguishes the two and no shorter sequence does,
   and a validation (output false) witness is a shortest rejected
   sequence.  The antichain engine on the language NFAs stays as an
   oracle: same verdict, and its witness is never shorter. *)
let regex_ab_gen =
  QCheck.Gen.(
    sized_size (int_range 0 5)
    @@ fix (fun self n ->
           if n <= 0 then oneofl [ "a"; "b"; "1" ]
           else
             oneof
               [
                 map2 (fun l r -> "(" ^ l ^ r ^ ")") (self (n / 2)) (self (n / 2));
                 map2
                   (fun l r -> "(" ^ l ^ "|" ^ r ^ ")")
                   (self (n / 2)) (self (n / 2));
                 map (fun e -> "(" ^ e ^ ")*") (self (n - 1));
               ]))

let prop_pl_witnesses_shortest =
  QCheck.Test.make ~count:40 ~name:"pl witnesses are shortest (brute force)"
    (QCheck.make QCheck.Gen.(pair regex_ab_gen regex_ab_gen))
    (fun (r1, r2) ->
      let mk r =
        Roman.to_sws_pl
          (Automata.Nfa.of_regex ~alphabet_size:2 (Automata.Regex.parse r))
      in
      let s1 = mk r1 and s2 = mk r2 in
      let k = Sws_pl.alphabet_size s1 and bound = 4 in
      let words = Automata.Word_gen.words_up_to ~alphabet_size:k bound in
      let first p = Option.map List.length (List.find_opt p words) in
      let shortest len = function
        | Some b -> len = b
        | None -> len > bound
      in
      let equiv_ok =
        let brute =
          first (fun w ->
              not (Bool.equal (Sws_pl.accepts_word s1 w) (Sws_pl.accepts_word s2 w)))
        in
        match
          ( Decision.pl_equivalence s1 s2,
            Automata.Lang.equivalent_cex (Compose.pl_language_nfa s1)
              (Compose.pl_language_nfa s2) )
        with
        | Decision.Equivalent, None -> brute = None
        | Decision.Inequivalent w, Some w' ->
          Sws_pl.run s1 w <> Sws_pl.run s2 w
          && shortest (List.length w) brute
          && List.length w <= List.length w'
        | _ -> false
      in
      let validation_ok =
        let brute = first (fun w -> not (Sws_pl.accepts_word s1 w)) in
        match Decision.pl_validation s1 ~output:false with
        | Decision.Yes w ->
          (not (Sws_pl.run s1 w)) && shortest (List.length w) brute
        | _ -> false
      in
      equiv_ok && validation_ok)

(* Cross-check: on nonrecursive services the NP (SAT) procedures agree with
   the PSPACE (automata) procedures. *)
let random_nr_pl rng =
  let num_states = 2 + Random.State.int rng 3 in
  let name i = Printf.sprintf "s%d" i in
  let rec formula depth vars =
    if depth = 0 || Random.State.int rng 3 = 0 then
      match Random.State.int rng 3 with
      | 0 -> Prop.True
      | 1 -> Prop.False
      | _ -> v (List.nth vars (Random.State.int rng (List.length vars)))
    else
      match Random.State.int rng 3 with
      | 0 -> Prop.Not (formula (depth - 1) vars)
      | 1 -> Prop.And (formula (depth - 1) vars, formula (depth - 1) vars)
      | _ -> Prop.Or (formula (depth - 1) vars, formula (depth - 1) vars)
  in
  let input_env = [ "x"; Sws_pl.msg_var ] in
  let rules =
    List.init num_states (fun i ->
        if i = num_states - 1 then (name i, final (formula 2 input_env))
        else begin
          (* successors strictly later in the order: a DAG *)
          let num_succ = 1 + Random.State.int rng 2 in
          let succs =
            List.init num_succ (fun _ ->
                let j = i + 1 + Random.State.int rng (num_states - i - 1) in
                (name j, formula 2 input_env))
          in
          let acts = List.mapi (fun k _ -> Sws_pl.act_var k) succs in
          (name i, { Sws_def.succs; synth = formula 2 acts })
        end)
  in
  Sws_pl.make ~input_vars:[ "x" ] ~start:"s0" ~rules

let prop_nr_procedures_agree =
  let gen = QCheck.Gen.int_bound 100000 in
  QCheck.Test.make ~count:60 ~name:"NP and PSPACE non-emptiness procedures agree"
    (QCheck.make gen)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let sws = random_nr_pl rng in
      let via_afa = Decision.pl_non_emptiness sws in
      let via_sat = Decision.pl_nr_non_emptiness sws in
      match via_afa, via_sat with
      | Decision.Yes _, Decision.Yes w -> Sws_pl.run sws w
      | Decision.No, Decision.No -> true
      | _ -> false)

let prop_nr_equivalence_agree =
  let gen = QCheck.Gen.int_bound 100000 in
  QCheck.Test.make ~count:30 ~name:"NP and PSPACE equivalence procedures agree"
    (QCheck.make gen)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s1 = random_nr_pl rng and s2 = random_nr_pl rng in
      let a = Decision.pl_equivalence s1 s2 in
      let b = Decision.pl_nr_equivalence s1 s2 in
      match a, b with
      | Decision.Equivalent, Decision.Equivalent -> true
      | Decision.Inequivalent _, Decision.Inequivalent w ->
        Sws_pl.run s1 w <> Sws_pl.run s2 w
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Data-driven classes                                                 *)
(* ------------------------------------------------------------------ *)

let tv = Term.var

let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body ()

(* A satisfiable nonrecursive CQ/UCQ service: route input, look up r. *)
let lookup_service =
  let phi = Sws_data.Q_cq (cq [ tv "x" ] [ Atom.make "in" [ tv "x" ] ]) in
  let psi =
    Sws_data.Q_cq
      (cq [ tv "x"; tv "y" ] [ Atom.make "msg" [ tv "x" ]; Atom.make "r" [ tv "x"; tv "y" ] ])
  in
  let copy = Sws_data.Q_ucq (R.Ucq.make [ cq [ tv "x"; tv "y" ] [ Atom.make "act1" [ tv "x"; tv "y" ] ] ]) in
  Sws_data.make ~db_schema:(R.Schema.of_list [ ("r", 2) ]) ~in_arity:1
    ~out_arity:2 ~start:"q0"
    ~rules:
      [
        ("q0", { Sws_def.succs = [ ("qa", phi) ]; synth = copy });
        ("qa", { Sws_def.succs = []; synth = psi });
      ]

(* An unsatisfiable service: the final synthesis demands msg values both
   equal and distinct. *)
let empty_service =
  let phi = Sws_data.Q_cq (cq [ tv "x" ] [ Atom.make "in" [ tv "x" ] ]) in
  let psi =
    Sws_data.Q_cq
      (cq
         ~neqs:[ (tv "x", tv "x") ]
         [ tv "x"; tv "x" ]
         [ Atom.make "msg" [ tv "x" ] ])
  in
  let copy = Sws_data.Q_ucq (R.Ucq.make [ cq [ tv "x"; tv "y" ] [ Atom.make "act1" [ tv "x"; tv "y" ] ] ]) in
  Sws_data.make ~db_schema:(R.Schema.of_list [ ("r", 2) ]) ~in_arity:1
    ~out_arity:2 ~start:"q0"
    ~rules:
      [
        ("q0", { Sws_def.succs = [ ("qa", phi) ]; synth = copy });
        ("qa", { Sws_def.succs = []; synth = psi });
      ]

let test_cq_non_emptiness () =
  (match Decision.cq_non_emptiness lookup_service with
  | Decision.Yes (db, inputs, goal) ->
    (* the witness really makes the service produce the goal tuple *)
    let out = Sws_data.run lookup_service db inputs in
    check "witness reproduces" true (Relation.mem goal out)
  | _ -> Alcotest.fail "expected Yes");
  check "empty service" true (Decision.cq_non_emptiness empty_service = Decision.No)

let test_cq_equivalence () =
  (* same service with a commuted union is equivalent *)
  check "self equivalent" true
    (Decision.cq_equivalence lookup_service lookup_service = Decision.Equivalent);
  match Decision.cq_equivalence lookup_service empty_service with
  | Decision.Inequivalent (db, inputs, tuple) ->
    (* the counterexample really separates the two services *)
    let o1 = Sws_data.run lookup_service db inputs in
    let o2 = Sws_data.run empty_service db inputs in
    check "tuple separates" true
      (Relation.mem tuple o1 <> Relation.mem tuple o2)
  | _ -> Alcotest.fail "expected inequivalent"

let test_cq_validation () =
  (* the empty output is always achievable *)
  (match Decision.cq_validation lookup_service ~output:(Relation.empty 2) with
  | Decision.Yes _ -> ()
  | _ -> Alcotest.fail "empty output must validate");
  (* a concrete singleton output *)
  let o =
    Relation.singleton (R.Tuple.of_list [ R.Value.int 1; R.Value.int 2 ])
  in
  match Decision.cq_validation lookup_service ~output:o with
  | Decision.Yes (db, inputs) ->
    check "witness gives exactly O" true
      (Relation.equal (Sws_data.run lookup_service db inputs) o)
  | Decision.No -> Alcotest.fail "should be achievable"
  | Decision.Exhausted e ->
    Alcotest.fail ("unexpected exhaustion: " ^ e.Sws.Engine.message)

(* Recursive CQ service: the semi-procedure finds witnesses but cannot
   conclude emptiness. *)
let test_recursive_scan () =
  (* recursive version of lookup *)
  let phi = Sws_data.Q_cq (cq [ tv "x" ] [ Atom.make "in" [ tv "x" ] ]) in
  let psi =
    Sws_data.Q_cq
      (cq [ tv "x"; tv "y" ] [ Atom.make "msg" [ tv "x" ]; Atom.make "r" [ tv "x"; tv "y" ] ])
  in
  let copy2 =
    Sws_data.Q_ucq
      (R.Ucq.make
         [
           cq [ tv "x"; tv "y" ] [ Atom.make "act1" [ tv "x"; tv "y" ] ];
           cq [ tv "x"; tv "y" ] [ Atom.make "act2" [ tv "x"; tv "y" ] ];
         ])
  in
  let svc =
    Sws_data.make ~db_schema:(R.Schema.of_list [ ("r", 2) ]) ~in_arity:1
      ~out_arity:2 ~start:"q0"
      ~rules:
        [
          ("q0", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
          ("qs", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
          ("qa", { Sws_def.succs = []; synth = psi });
        ]
  in
  match Decision.cq_non_emptiness ~budget:(Sws.Engine.Budget.of_depth 4) svc with
  | Decision.Yes (db, inputs, goal) ->
    check "recursive witness" true (Relation.mem goal (Sws_data.run svc db inputs))
  | _ -> Alcotest.fail "expected a witness"

(* FO: bounded procedures. *)
let test_fo_procedures () =
  let sentence =
    R.Fo.Exists ("x", R.Fo.atom "u" [ Term.var "x" ])
  in
  let svc = Reductions.sws_of_fo_sentence ~db_schema:(R.Schema.of_list [ ("u", 1) ]) sentence in
  (match Decision.fo_non_emptiness svc with
  | Decision.Yes (db, inputs) ->
    check "fo witness" true
      (not (Relation.is_empty (Sws_data.run svc db inputs)))
  | _ -> Alcotest.fail "expected Yes");
  (* an unsatisfiable sentence: bounded search reports Unknown, never Yes *)
  let bad =
    R.Fo.conj
      [
        R.Fo.Exists ("x", R.Fo.atom "u" [ Term.var "x" ]);
        R.Fo.forall_many [ "x" ] (R.Fo.Not (R.Fo.atom "u" [ Term.var "x" ]));
      ]
  in
  let svc_bad = Reductions.sws_of_fo_sentence ~db_schema:(R.Schema.of_list [ ("u", 1) ]) bad in
  match Decision.fo_non_emptiness svc_bad with
  | Decision.Exhausted _ -> ()
  | Decision.Yes _ -> Alcotest.fail "unsatisfiable sentence given a witness"
  | Decision.No -> Alcotest.fail "the semi-procedure never answers No"

(* Same auto-reset discipline as T_engine: the procedures under test bump
   [Engine.Stats.global] and append global provenance records; each case
   starts and leaves both clean. *)
let reset_global (name, speed, run) =
  ( name,
    speed,
    fun args ->
      Engine.Stats.reset Engine.Stats.global;
      Obs.Trace.clear_provenances ();
      Fun.protect
        ~finally:(fun () ->
          Engine.Stats.reset Engine.Stats.global;
          Obs.Trace.clear_provenances ())
        (fun () -> run args) )

let suite =
  List.map reset_global
    [
      Alcotest.test_case "pl non-emptiness" `Quick test_pl_non_emptiness;
      Alcotest.test_case "pl validation" `Quick test_pl_validation;
      Alcotest.test_case "pl equivalence" `Quick test_pl_equivalence;
      QCheck_alcotest.to_alcotest prop_pl_witnesses_shortest;
      QCheck_alcotest.to_alcotest prop_nr_procedures_agree;
      QCheck_alcotest.to_alcotest prop_nr_equivalence_agree;
      Alcotest.test_case "cq non-emptiness" `Quick test_cq_non_emptiness;
      Alcotest.test_case "cq equivalence" `Quick test_cq_equivalence;
      Alcotest.test_case "cq validation" `Quick test_cq_validation;
      Alcotest.test_case "recursive scan" `Quick test_recursive_scan;
      Alcotest.test_case "fo procedures" `Quick test_fo_procedures;
    ]
