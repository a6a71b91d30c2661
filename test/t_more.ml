(* A second round of coverage: validation procedures, composition corner
   cases, mediator well-formedness, and aggregation sessions. *)

module R = Relational
module Prop = Proplogic.Prop
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Term = R.Term
module Atom = R.Atom
module Relation = R.Relation
module Value = R.Value
module Tuple = R.Tuple
open Sws

let check = Alcotest.(check bool)
let nfa s = Nfa.of_regex ~alphabet_size:2 (Regex.parse s)

(* ------------------------------------------------------------------ *)
(* Validation procedures                                               *)
(* ------------------------------------------------------------------ *)

let test_pl_nr_validation () =
  let sws = Reductions.sws_of_sat (Prop.var "x") in
  (match Decision.pl_nr_validation sws ~output:true with
  | Decision.Yes w -> check "accepting witness" true (Sws_pl.run sws w)
  | _ -> Alcotest.fail "expected Yes");
  (match Decision.pl_nr_validation sws ~output:false with
  | Decision.Yes w -> check "rejecting witness" false (Sws_pl.run sws w)
  | _ -> Alcotest.fail "expected Yes");
  (* a constantly-false service validates only false *)
  let dead = Reductions.sws_of_sat Prop.False in
  check "dead validates false" true
    (match Decision.pl_nr_validation dead ~output:false with
    | Decision.Yes _ -> true
    | _ -> false);
  check "dead never true" true
    (Decision.pl_nr_validation dead ~output:true = Decision.No)

let test_cq_validation_multi () =
  let v = Term.var in
  let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body () in
  let phi = Sws_data.Q_cq (cq [ v "x" ] [ Atom.make "in" [ v "x" ] ]) in
  let psi =
    Sws_data.Q_cq
      (cq [ v "x"; v "y" ] [ Atom.make "msg" [ v "x" ]; Atom.make "r" [ v "x"; v "y" ] ])
  in
  let copy = Sws_data.Q_ucq (R.Ucq.make [ cq [ v "x"; v "y" ] [ Atom.make "act1" [ v "x"; v "y" ] ] ]) in
  let svc =
    Sws_data.make ~db_schema:(R.Schema.of_list [ ("r", 2) ]) ~in_arity:1
      ~out_arity:2 ~start:"q0"
      ~rules:
        [
          ("q0", { Sws_def.succs = [ ("qa", phi) ]; synth = copy });
          ("qa", { Sws_def.succs = []; synth = psi });
        ]
  in
  (* a two-tuple output with a shared first column *)
  let o =
    Relation.of_list 2
      [
        Tuple.of_list [ Value.int 1; Value.int 2 ];
        Tuple.of_list [ Value.int 1; Value.int 3 ];
      ]
  in
  match Decision.cq_validation svc ~output:o with
  | Decision.Yes (db, inputs) ->
    check "multi-tuple exact" true (Relation.equal (Sws_data.run svc db inputs) o)
  | Decision.No -> Alcotest.fail "achievable output"
  | Decision.Exhausted e -> Alcotest.fail ("exhausted: " ^ e.Sws.Engine.message)

(* ------------------------------------------------------------------ *)
(* Composition corner cases                                            *)
(* ------------------------------------------------------------------ *)

let test_trailing_core () =
  (* L = a(a|b)*: w·Σ* ⊆ L iff w starts with a (and w nonempty) *)
  let core = Compose.trailing_core_dfa (Dfa.of_nfa (nfa "a(a|b)*")) in
  check "a in core" true (Dfa.accepts core [ 0 ]);
  check "ab in core" true (Dfa.accepts core [ 0; 1 ]);
  check "b not in core" false (Dfa.accepts core [ 1 ]);
  check "eps not in core" false (Dfa.accepts core []);
  (* finite language: empty core *)
  let core2 = Compose.trailing_core_dfa (Dfa.of_nfa (nfa "ab")) in
  check "finite language has empty core" true (Dfa.is_empty core2)

let test_compose_pl_or_inexact () =
  (* goal: x in the first message AND in the second; component checks only
     a single first message — chains can cover x@1 & x@2 exactly *)
  let module P = Prop in
  let goal =
    Sws_pl.make ~input_vars:[ "x" ] ~start:"q0"
      ~rules:
        [
          ("q0", { Sws_def.succs = [ ("q1", P.var "x") ]; synth = P.var "act1" });
          ("q1", { Sws_def.succs = []; synth = P.And (P.var "x", P.var Sws_pl.msg_var) });
        ]
  in
  let check_first =
    Sws_pl.make ~input_vars:[ "x" ] ~start:"q0"
      ~rules:[ ("q0", { Sws_def.succs = []; synth = P.var "x" }) ]
  in
  match Compose.compose_pl_or ~goal ~components:[ ("cx", check_first) ] () with
  | Some { Compose.exact; mediator; _ } ->
    check "exact two-chain" true exact;
    check "cx;cx plan" true (Dfa.accepts mediator [ 0; 0 ])
  | None -> Alcotest.fail "expected a composition"

let test_universal_nfa () =
  let u = Compose.universal_nfa 2 in
  check "accepts eps" true (Nfa.accepts u []);
  check "accepts anything" true (Nfa.accepts u [ 0; 1; 1; 0 ])

let test_plan_language () =
  let env = [ ("a", nfa "a"); ("b", nfa "b") ] in
  let lang p = Compose.plan_language_nfa ~env ~alphabet_size:2 p in
  check "chain" true (Nfa.accepts (lang (Compose.Chain [ Invoke "a"; Invoke "b" ])) [ 0; 1 ]);
  check "union" true (Nfa.accepts (lang (Compose.Union (Invoke "a", Invoke "b"))) [ 1 ]);
  check "minus" false (Nfa.accepts (lang (Compose.Minus (Invoke "a", Invoke "a"))) [ 0 ]);
  check "inter empty" true
    (Nfa.is_empty (lang (Compose.Inter (Invoke "a", Invoke "b"))))

(* ------------------------------------------------------------------ *)
(* Mediator well-formedness                                            *)
(* ------------------------------------------------------------------ *)

let test_mediator_ill_formed () =
  let v = Term.var in
  let cq head body = R.Cq.make ~head ~body () in
  let db_schema = R.Schema.of_list [ ("r", 2) ] in
  let svc = Compose.query_service ~db_schema (cq [ v "x"; v "y" ] [ Atom.make "r" [ v "x"; v "y" ] ]) in
  let copy = Sws_data.Q_cq (cq [ v "x"; v "y" ] [ Atom.make Sws_data.msg_rel [ v "x"; v "y" ] ]) in
  (* unknown component *)
  (match
     Mediator.make ~db_schema ~arity:2
       ~components:[ { Mediator.name = "vr"; service = svc } ]
       ~start:"q0"
       ~rules:
         [
           ("q0", { Sws_def.succs = [ ("q1", "ghost") ]; synth = copy });
           ("q1", { Sws_def.succs = []; synth = copy });
         ]
   with
  | exception Mediator.Ill_formed _ -> ()
  | _ -> Alcotest.fail "unknown component accepted");
  (* root synthesis arity mismatch *)
  match
    Mediator.make ~db_schema ~arity:3
      ~components:[ { Mediator.name = "vr"; service = svc } ]
      ~start:"q0"
      ~rules:[ ("q0", { Sws_def.succs = []; synth = copy }) ]
  with
  | exception Mediator.Ill_formed _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

(* ------------------------------------------------------------------ *)
(* Aggregation sessions                                                 *)
(* ------------------------------------------------------------------ *)

let test_aggregate_sessions () =
  let db =
    Travel.catalog_db
      ~airfares:[ (101, 300); (102, 500) ]
      ~hotels:[ (201, 120) ] ~tickets:[ (301, 80) ] ~cars:[]
  in
  let req = Travel.request ~air:[ 300; 500 ] ~hotel:[ 120 ] ~ticket:[ 80 ] () in
  let d = Sws_data.delimiter 2 in
  let _db, outs =
    Aggregate.run_sessions Travel.tau1_min_cost db
      (Travel.session req @ [ d ] @ Travel.session req)
  in
  Alcotest.(check int) "two sessions" 2 (List.length outs);
  List.iter
    (fun o -> Alcotest.(check int) "argmin per session" 1 (Relation.cardinal o))
    outs

let suite =
  [
    Alcotest.test_case "pl nr validation" `Quick test_pl_nr_validation;
    Alcotest.test_case "cq validation multi" `Quick test_cq_validation_multi;
    Alcotest.test_case "trailing core" `Quick test_trailing_core;
    Alcotest.test_case "compose pl or chains" `Quick test_compose_pl_or_inexact;
    Alcotest.test_case "universal nfa" `Quick test_universal_nfa;
    Alcotest.test_case "plan language" `Quick test_plan_language;
    Alcotest.test_case "mediator ill-formed" `Quick test_mediator_ill_formed;
    Alcotest.test_case "aggregate sessions" `Quick test_aggregate_sessions;
  ]
