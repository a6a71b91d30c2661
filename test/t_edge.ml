(* Edge cases and structural invariants: ill-formed definitions are
   rejected, encodings hold under unusual arities, and the run relation's
   structural properties (depth bounds, halting) hold on random inputs. *)

module R = Relational
module Prop = Proplogic.Prop
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Word_gen = Automata.Word_gen
module Term = R.Term
module Atom = R.Atom
module Relation = R.Relation
module Value = R.Value
module Tuple = R.Tuple
open Sws

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Definition 2.1 well-formedness                                      *)
(* ------------------------------------------------------------------ *)

let expect_ill_formed name f =
  match f () with
  | exception Sws_def.Ill_formed _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Ill_formed")

let test_ill_formed_definitions () =
  let final = { Sws_def.succs = []; synth = Prop.True } in
  (* duplicate state *)
  expect_ill_formed "duplicate" (fun () ->
      Sws_def.make ~start:"q0" ~rules:[ ("q0", final); ("q0", final) ]);
  (* undefined successor *)
  expect_ill_formed "undefined succ" (fun () ->
      Sws_def.make ~start:"q0"
        ~rules:[ ("q0", { Sws_def.succs = [ ("ghost", Prop.True) ]; synth = Prop.True }) ]);
  (* the start state may not appear in any rhs (Definition 2.1) *)
  expect_ill_formed "start in rhs" (fun () ->
      Sws_def.make ~start:"q0"
        ~rules:
          [
            ("q0", { Sws_def.succs = [ ("q1", Prop.True) ]; synth = Prop.True });
            ("q1", { Sws_def.succs = [ ("q0", Prop.True) ]; synth = Prop.True });
          ])

let test_pl_variable_discipline () =
  (* a final state's synthesis may not mention act registers *)
  expect_ill_formed "final uses act" (fun () ->
      Sws_pl.make ~input_vars:[ "x" ] ~start:"q0"
        ~rules:[ ("q0", { Sws_def.succs = []; synth = Prop.var "act1" }) ]);
  (* an internal synthesis may not read the input *)
  expect_ill_formed "internal reads input" (fun () ->
      Sws_pl.make ~input_vars:[ "x" ] ~start:"q0"
        ~rules:
          [
            ("q0", { Sws_def.succs = [ ("q1", Prop.var "x") ]; synth = Prop.var "x" });
            ("q1", { Sws_def.succs = []; synth = Prop.var "x" });
          ])

let test_data_schema_discipline () =
  let v = Term.var in
  let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body () in
  (* a transition whose arity differs from R_in is rejected *)
  expect_ill_formed "bad transition arity" (fun () ->
      Sws_data.make ~db_schema:R.Schema.empty ~in_arity:2 ~out_arity:1
        ~start:"q0"
        ~rules:
          [
            ( "q0",
              {
                Sws_def.succs =
                  [ ("q1", Sws_data.Q_cq (cq [ v "x" ] [ Atom.make "in" [ v "x"; v "y" ] ])) ];
                synth =
                  Sws_data.Q_cq (cq [ v "x" ] [ Atom.make "act1" [ v "x" ] ]);
              } );
            ( "q1",
              {
                Sws_def.succs = [];
                synth = Sws_data.Q_cq (cq [ v "x" ] [ Atom.make "msg" [ v "x"; v "y" ] ]);
              } );
          ]);
  (* a final synthesis may not read act registers *)
  expect_ill_formed "final reads act" (fun () ->
      Sws_data.make ~db_schema:R.Schema.empty ~in_arity:1 ~out_arity:1
        ~start:"q0"
        ~rules:
          [
            ( "q0",
              {
                Sws_def.succs = [];
                synth = Sws_data.Q_cq (cq [ v "x" ] [ Atom.make "act1" [ v "x" ] ]);
              } );
          ])

(* ------------------------------------------------------------------ *)
(* Automata invariants                                                 *)
(* ------------------------------------------------------------------ *)

let regex_samples = [ "(ab)*c"; "a|bc"; "(a|b)+"; "a?b*"; "((ab)|c)*a" ]

let test_regex_pp_parse_roundtrip () =
  List.iter
    (fun s ->
      let r = Regex.parse s in
      let r' = Regex.parse (Regex.to_string r) in
      List.iter
        (fun w ->
          check
            (Fmt.str "roundtrip %s on %a" s Word_gen.pp_word w)
            (Regex.matches r w) (Regex.matches r' w))
        (Word_gen.words_up_to ~alphabet_size:3 4))
    regex_samples

let test_minimize_idempotent () =
  List.iter
    (fun s ->
      let d = Dfa.of_nfa (Nfa.of_regex ~alphabet_size:3 (Regex.parse s)) in
      let m = Dfa.minimize d in
      let mm = Dfa.minimize m in
      check "idempotent size" true (Dfa.num_states m = Dfa.num_states mm);
      check "still equivalent" true (Oracle.Eager.equivalent d mm))
    regex_samples

let test_eps_free_preserves () =
  List.iter
    (fun s ->
      let n = Nfa.of_regex ~alphabet_size:3 (Regex.parse s) in
      let e = Nfa.eps_free n in
      List.iter
        (fun w -> check "eps_free" (Nfa.accepts n w) (Nfa.accepts e w))
        (Word_gen.words_up_to ~alphabet_size:3 4))
    regex_samples

(* ------------------------------------------------------------------ *)
(* Run-relation invariants                                             *)
(* ------------------------------------------------------------------ *)

let chain_service =
  let v = Term.var in
  let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body () in
  let phi = Sws_data.Q_cq (cq [ v "x" ] [ Atom.make "in" [ v "x" ] ]) in
  let psi = Sws_data.Q_cq (cq [ v "x" ] [ Atom.make "msg" [ v "x" ] ]) in
  let copy2 =
    Sws_data.Q_ucq
      (R.Ucq.make
         [
           cq [ v "x" ] [ Atom.make "act1" [ v "x" ] ];
           cq [ v "x" ] [ Atom.make "act2" [ v "x" ] ];
         ])
  in
  Sws_data.make ~db_schema:R.Schema.empty ~in_arity:1 ~out_arity:1 ~start:"q0"
    ~rules:
      [
        ("q0", { Sws_def.succs = [ ("qs", phi); ("qe", phi) ]; synth = copy2 });
        ("qs", { Sws_def.succs = [ ("qs", phi); ("qe", phi) ]; synth = copy2 });
        ("qe", { Sws_def.succs = []; synth = psi });
      ]

let prop_tree_depth_bounded =
  QCheck.Test.make ~count:60 ~name:"execution-tree depth is at most |I| + 1"
    (QCheck.make (QCheck.Gen.int_bound 100000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = Random.State.int rng 5 in
      let inputs =
        List.init n (fun _ ->
            Relation.of_list 1
              (List.init (Random.State.int rng 2) (fun _ ->
                   Tuple.of_list [ Value.int (Random.State.int rng 3) ])))
      in
      let tree =
        Sws_data.run_tree chain_service (R.Database.empty R.Schema.empty) inputs
      in
      Sws_data.Run.tree_depth tree <= n + 1)

let test_empty_input_runs () =
  check "pl empty" false (Sws_pl.run (Reductions.sws_of_sat (Prop.var "x")) []);
  check "data empty" true
    (Relation.is_empty
       (Sws_data.run chain_service (R.Database.empty R.Schema.empty) []))

let test_session_splitting () =
  let db = R.Database.empty R.Schema.empty in
  let msg i = Relation.singleton (Tuple.of_list [ Value.int i ]) in
  (* no delimiter: one session equal to the direct run *)
  let _, outs = Sws_data.run_sessions chain_service db [ msg 1; msg 2 ] in
  check "one session" true (List.length outs = 1);
  check "same as direct" true
    (Relation.equal (List.hd outs) (Sws_data.run chain_service db [ msg 1; msg 2 ]));
  (* consecutive delimiters yield empty sessions *)
  let d = Sws_data.delimiter 1 in
  let _, outs = Sws_data.run_sessions chain_service db [ d; d; msg 1 ] in
  check "three sessions" true (List.length outs = 3);
  check "empty sessions empty" true
    (Relation.is_empty (List.nth outs 0) && Relation.is_empty (List.nth outs 1))

(* ------------------------------------------------------------------ *)
(* Odd arities through the encodings                                   *)
(* ------------------------------------------------------------------ *)

(* A peer whose state is wider than both input and output: exercises the
   padding arithmetic of the tagged-register encoding. *)
let test_peer_wide_state () =
  let v = Term.var in
  let peer =
    Peer.make ~db_schema:R.Schema.empty ~state_arity:2 ~input_arity:1
      ~out_arity:1
      ~state_rule:
        (R.Fo.query [ "x"; "x2" ]
           (R.Fo.conj [ R.Fo.atom "in" [ v "x" ]; R.Fo.eq (v "x2") (v "x") ]))
      ~action_rule:
        (R.Fo.query [ "x" ]
           (R.Fo.conj
              [ R.Fo.atom "in" [ v "x" ]; R.Fo.atom "state" [ v "x"; v "x" ] ]))
  in
  let msg ints =
    Relation.of_list 1 (List.map (fun i -> Tuple.of_list [ Value.int i ]) ints)
  in
  let db = R.Database.empty R.Schema.empty in
  let inputs = [ msg [ 1 ]; msg [ 1; 2 ]; msg [ 2 ] ] in
  let direct = Peer.run peer db inputs in
  let encoded = Peer.run_encoded peer db inputs in
  List.iteri
    (fun i (d, e) ->
      check (Printf.sprintf "wide state step %d" (i + 1)) true (Relation.equal d e))
    (List.combine direct encoded)

(* ------------------------------------------------------------------ *)
(* Value / Relation small invariants                                   *)
(* ------------------------------------------------------------------ *)

let test_fresh_values () =
  let supply = Value.Fresh.supply () in
  let a = Value.Fresh.next supply and b = Value.Fresh.next supply in
  check "fresh distinct" false (Value.equal a b);
  check "fresh frozen" true (Value.is_frozen a && Value.is_frozen b);
  check "ordinary not frozen" false (Value.is_frozen (Value.int 3));
  (* regression: user strings starting with '@' are not labelled nulls *)
  check "at-string not frozen" false (Value.is_frozen (Value.str "@f1"));
  check "at-string not frozen 2" false (Value.is_frozen (Value.str "@foo"));
  (* supplies are scoped: a fresh supply restarts and stays self-consistent *)
  let s2 = Value.Fresh.supply () in
  let a2 = Value.Fresh.next s2 in
  check "supplies independent" true (Value.equal a a2)

let prop_project_product =
  QCheck.Test.make ~count:40 ~name:"projecting a product recovers the factor"
    (QCheck.make (QCheck.Gen.int_bound 100000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rel k =
        Relation.of_list 2
          (List.init (1 + Random.State.int rng 4) (fun _ ->
               Tuple.of_list [ Value.int (Random.State.int rng k); Value.int (Random.State.int rng k) ]))
      in
      let a = rel 3 and b = rel 3 in
      Relation.equal (Relation.project [ 0; 1 ] (Relation.product a b)) a
      && Relation.equal (Relation.project [ 2; 3 ] (Relation.product a b)) b)

let suite =
  [
    Alcotest.test_case "ill-formed definitions" `Quick test_ill_formed_definitions;
    Alcotest.test_case "pl variable discipline" `Quick test_pl_variable_discipline;
    Alcotest.test_case "data schema discipline" `Quick test_data_schema_discipline;
    Alcotest.test_case "regex pp/parse roundtrip" `Quick test_regex_pp_parse_roundtrip;
    Alcotest.test_case "minimize idempotent" `Quick test_minimize_idempotent;
    Alcotest.test_case "eps_free preserves" `Quick test_eps_free_preserves;
    QCheck_alcotest.to_alcotest prop_tree_depth_bounded;
    Alcotest.test_case "empty input runs" `Quick test_empty_input_runs;
    Alcotest.test_case "session splitting" `Quick test_session_splitting;
    Alcotest.test_case "peer wide state" `Quick test_peer_wide_state;
    Alcotest.test_case "fresh values" `Quick test_fresh_values;
    QCheck_alcotest.to_alcotest prop_project_product;
  ]
