(* Tests for the datalog engine: semi-naive against the naive fixpoint
   oracle, sirups, and the inverse-rules algorithm. *)

module R = Relational
module Term = R.Term
module Atom = R.Atom
module Value = R.Value
module Tuple = R.Tuple
module Relation = R.Relation
module Database = R.Database
module Schema = R.Schema
module Dl = Datalog.Dl
module Seminaive = Datalog.Seminaive
module Sirup = Datalog.Sirup
module Inverse_rules = Datalog.Inverse_rules

let check = Alcotest.(check bool)
let v = Term.var

let tc_program =
  Dl.make
    [
      Dl.plain_rule "tc" [ v "x"; v "y" ] [ Atom.make "e" [ v "x"; v "y" ] ];
      Dl.plain_rule "tc" [ v "x"; v "z" ]
        [ Atom.make "e" [ v "x"; v "y" ]; Atom.make "tc" [ v "y"; v "z" ] ];
    ]

let edge_db rows =
  let schema = Schema.of_list [ ("e", 2); ("tc", 2) ] in
  List.fold_left
    (fun db (a, b) ->
      Database.add_tuple "e" (Tuple.of_list [ Value.int a; Value.int b ]) db)
    (Database.empty schema) rows

let test_transitive_closure () =
  let db = edge_db [ (1, 2); (2, 3); (3, 4) ] in
  let result = Seminaive.eval tc_program db in
  let tc = Database.find "tc" result in
  Alcotest.(check int) "6 pairs" 6 (Relation.cardinal tc);
  check "1->4" true (Relation.mem (Tuple.of_list [ Value.int 1; Value.int 4 ]) tc)

let prop_naive_equals_seminaive =
  let gen = QCheck.Gen.int_bound 100000 in
  QCheck.Test.make ~count:50 ~name:"naive and semi-naive fixpoints agree"
    (QCheck.make gen)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows =
        List.init (Random.State.int rng 8) (fun _ ->
            (Random.State.int rng 5, Random.State.int rng 5))
      in
      let db = edge_db rows in
      let a = Oracle.datalog_eval tc_program db in
      let b = Seminaive.eval tc_program db in
      Relation.equal (Database.find "tc" a) (Database.find "tc" b))

(* A two-IDB program layered on tc: "sym" closes tc under edge reversal, so
   the semi-naive delta store juggles several changing relations per round —
   the Map-backed bookkeeping and the index-backed joins both get exercised
   across dependent strata. *)
let tc_sym_program =
  Dl.make
    [
      Dl.plain_rule "tc" [ v "x"; v "y" ] [ Atom.make "e" [ v "x"; v "y" ] ];
      Dl.plain_rule "tc" [ v "x"; v "z" ]
        [ Atom.make "e" [ v "x"; v "y" ]; Atom.make "tc" [ v "y"; v "z" ] ];
      Dl.plain_rule "sym" [ v "x"; v "y" ] [ Atom.make "tc" [ v "x"; v "y" ] ];
      Dl.plain_rule "sym" [ v "y"; v "x" ] [ Atom.make "tc" [ v "x"; v "y" ] ];
    ]

let sym_edge_db rows =
  let schema = Schema.of_list [ ("e", 2); ("tc", 2); ("sym", 2) ] in
  List.fold_left
    (fun db (a, b) ->
      Database.add_tuple "e" (Tuple.of_list [ Value.int a; Value.int b ]) db)
    (Database.empty schema) rows

let prop_fixpoint_idbs_agree =
  let gen = QCheck.Gen.int_bound 100000 in
  QCheck.Test.make ~count:40
    ~name:"seminaive = naive fixpoint under every IDB relation"
    (QCheck.make gen)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows =
        List.init (Random.State.int rng 10) (fun _ ->
            (Random.State.int rng 5, Random.State.int rng 5))
      in
      let db = sym_edge_db rows in
      let reference = Oracle.datalog_eval tc_sym_program db in
      let result = Seminaive.eval tc_sym_program db in
      List.for_all
        (fun idb ->
          Relation.equal (Database.find idb reference) (Database.find idb result))
        (Dl.idb_relations tc_sym_program))

let test_sirup () =
  (* cycle 0 -> 1 -> 0: sg(0,0) seeds; goal sg(1,1) derivable via the
     same-generation rule with edges from each node *)
  let edges = [ (Value.int 1, Value.int 0); (Value.int 0, Value.int 1) ] in
  let rule =
    Dl.plain_rule "sg" [ v "x"; v "y" ]
      [
        Atom.make "e" [ v "x"; v "u" ];
        Atom.make "sg" [ v "u"; v "v" ];
        Atom.make "e" [ v "y"; v "v" ];
      ]
  in
  let s =
    Sirup.make
      ~fact:("sg", Tuple.of_list [ Value.int 0; Value.int 0 ])
      ~rule
      ~goal:("sg", Tuple.of_list [ Value.int 1; Value.int 1 ])
  in
  check "derivable" true (Sirup.accepts_with_edges (s, edges));
  let s_unreachable =
    Sirup.make
      ~fact:("sg", Tuple.of_list [ Value.int 0; Value.int 0 ])
      ~rule
      ~goal:("sg", Tuple.of_list [ Value.int 4; Value.int 4 ])
  in
  check "not derivable" false (Sirup.accepts_with_edges (s_unreachable, edges))

let test_inverse_rules () =
  (* base: e/2.  View keeps only the endpoints of 2-paths. *)
  let view_q =
    R.Cq.make
      ~head:[ v "x"; v "z" ]
      ~body:[ Atom.make "e" [ v "x"; v "y" ]; Atom.make "e" [ v "y"; v "z" ] ]
      ()
  in
  let views = [ Inverse_rules.view "v2" view_q ] in
  let base = edge_db [ (1, 2); (2, 3); (3, 4) ] in
  let extensions = Inverse_rules.materialize ~views base in
  (* query: 4-paths, answerable by composing the view twice *)
  let q4 =
    R.Cq.make
      ~head:[ v "a"; v "c" ]
      ~body:[ Atom.make "e" [ v "a"; v "b" ]; Atom.make "e" [ v "b"; v "c" ] ]
      ()
  in
  let answers = Inverse_rules.certain_answers ~views ~extensions q4 in
  (* v2 gives (1,3) and (2,4); reconstructing e through skolems, the only
     certain 2-paths are those implied by the views *)
  check "certain (1,3)" true
    (Relation.mem (Tuple.of_list [ Value.int 1; Value.int 3 ]) answers);
  check "certain (2,4)" true
    (Relation.mem (Tuple.of_list [ Value.int 2; Value.int 4 ]) answers);
  (* soundness: certain answers are real answers *)
  check "sound" true (Relation.subset answers (R.Cq.eval q4 base));
  (* the Skolemized inverse-rule program reaches the naive fixpoint *)
  let prog = Inverse_rules.program views in
  let fixpoint = Seminaive.eval prog extensions in
  let reference = Oracle.datalog_eval prog extensions in
  check "skolem fixpoint = naive oracle" true
    (List.for_all
       (fun r ->
         Relation.equal (Database.find r fixpoint) (Database.find r reference))
       (Dl.idb_relations prog))

let prop_inverse_rules_sound =
  let gen = QCheck.Gen.int_bound 100000 in
  QCheck.Test.make ~count:30 ~name:"inverse-rule certain answers are sound"
    (QCheck.make gen)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows =
        List.init (Random.State.int rng 8) (fun _ ->
            (Random.State.int rng 4, Random.State.int rng 4))
      in
      let base = edge_db rows in
      let view_q =
        R.Cq.make ~head:[ v "x"; v "y" ] ~body:[ Atom.make "e" [ v "x"; v "y" ] ] ()
      in
      let views = [ Inverse_rules.view "ve" view_q ] in
      let extensions = Inverse_rules.materialize ~views base in
      let q =
        R.Cq.make ~head:[ v "a"; v "c" ]
          ~body:[ Atom.make "e" [ v "a"; v "b" ]; Atom.make "e" [ v "b"; v "c" ] ]
          ()
      in
      let answers = Inverse_rules.certain_answers ~views ~extensions q in
      (* the identity view determines the base, so certain = exact *)
      Relation.equal answers (R.Cq.eval q base))

let suite =
  [
    Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
    QCheck_alcotest.to_alcotest prop_naive_equals_seminaive;
    QCheck_alcotest.to_alcotest prop_fixpoint_idbs_agree;
    Alcotest.test_case "sirup" `Quick test_sirup;
    Alcotest.test_case "inverse rules" `Quick test_inverse_rules;
    QCheck_alcotest.to_alcotest prop_inverse_rules_sound;
  ]
