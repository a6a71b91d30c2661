(* Tests for the relational substrate: relations, CQ/UCQ evaluation and
   containment (including Klug's technique for <>), and FO. *)

module R = Relational
module Value = R.Value
module Tuple = R.Tuple
module Relation = R.Relation
module Schema = R.Schema
module Database = R.Database
module Term = R.Term
module Atom = R.Atom
module Cq = R.Cq
module Ucq = R.Ucq
module Fo = R.Fo

let v = Term.var
let i = Term.int
let cq ?eqs ?neqs head body = Cq.make ?eqs ?neqs ~head ~body ()

let tup ints = Tuple.of_list (List.map Value.int ints)

let rel arity rows = Relation.of_list arity (List.map tup rows)

let db_r rows =
  Database.set "r" (rel 2 rows) (Database.empty (Schema.of_list [ ("r", 2) ]))

let check = Alcotest.(check bool)

(* Regression: [remove] must enforce the arity check exactly like [add]; a
   wrong-arity removal used to silently no-op. *)
let test_remove_arity_checked () =
  let a = rel 2 [ [ 1; 2 ] ] in
  check "same-arity remove works" true
    (Relation.is_empty (Relation.remove (tup [ 1; 2 ]) a));
  check "remove of absent tuple is a no-op" true
    (Relation.equal a (Relation.remove (tup [ 9; 9 ]) a));
  Alcotest.check_raises "wrong-arity remove raises"
    (Relation.Arity_mismatch "remove: expected arity 2, got tuple of arity 1")
    (fun () -> ignore (Relation.remove (tup [ 1 ]) a))

(* Regression: the greedy join loop used to drop a chosen atom with
   [List.filter (fun a -> not (a == b))], which removes *every* physical
   occurrence at once — a body with a shared duplicated atom lost all its
   copies in one step.  [remove_one_atom] must consume exactly one. *)
let test_duplicate_atom_removed_once () =
  let a = Atom.make "r" [ v "x"; v "y" ] in
  Alcotest.(check int) "one of two shared occurrences survives" 1
    (List.length (Cq.remove_one_atom a [ a; a ]));
  Alcotest.(check int) "two of three shared occurrences survive" 2
    (List.length (Cq.remove_one_atom a [ a; a; a ]));
  let b = Atom.make "r" [ v "x"; v "y" ] in
  check "structurally equal but distinct atoms untouched" true
    (Cq.remove_one_atom a [ b; a; b ] = [ b; b ]);
  (* end-to-end: a query whose body shares one atom twice evaluates like
     the nested-loop oracle and matches the deduplicated query *)
  let db = db_r [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ] ] in
  let dup = cq [ v "x" ] [ a; a ] in
  let single = cq [ v "x" ] [ a ] in
  let expected = Cq.eval single db in
  List.iter
    (fun eval -> check "duplicated body atom" true (Relation.equal (eval dup db) expected))
    [ Oracle.cq_eval; Cq.eval ]

(* Property: the indexed join is answer-equivalent to the nested-loop
   oracle on randomized CQ/database instances (the index is an
   optimization, never a semantics change). *)
let prop_join_matches_oracle =
  let gen = QCheck.Gen.int_bound 100000 in
  QCheck.Test.make ~count:120 ~name:"indexed CQ evaluation = nested-loop oracle"
    (QCheck.make gen)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let var_of n = v (Printf.sprintf "v%d" n) in
      let term () =
        if Random.State.int rng 5 = 0 then i (Random.State.int rng 4)
        else var_of (Random.State.int rng 4)
      in
      let atom () =
        if Random.State.bool rng then Atom.make "r" [ term (); term () ]
        else Atom.make "s" [ term (); term (); term () ]
      in
      let rec body n = if n = 0 then [] else atom () :: body (n - 1) in
      let body = body (1 + Random.State.int rng 3) in
      let head_pool = List.concat_map Atom.vars body in
      if head_pool = [] then true
      else begin
        let head =
          [ v (List.nth head_pool (Random.State.int rng (List.length head_pool))) ]
        in
        let neqs =
          if Random.State.int rng 3 = 0 && List.length head_pool > 1 then
            [ (v (List.nth head_pool 0), v (List.nth head_pool 1)) ]
          else []
        in
        let q = cq ~neqs head body in
        let schema = Schema.of_list [ ("r", 2); ("s", 3) ] in
        let config =
          {
            R.Instance_gen.domain_size = 1 + Random.State.int rng 5;
            tuples_per_relation = Random.State.int rng 12;
          }
        in
        let db = R.Instance_gen.random_database ~config rng schema in
        let reference = Oracle.cq_eval q db in
        Relation.equal reference (Cq.eval q db)
        (* a second run hits the warm per-database index cache *)
        && Relation.equal reference (Cq.eval q db)
      end)

let test_relation_algebra () =
  let a = rel 2 [ [ 1; 2 ]; [ 3; 4 ] ] and b = rel 2 [ [ 3; 4 ]; [ 5; 6 ] ] in
  check "union card" true (Relation.cardinal (Relation.union a b) = 3);
  check "inter" true (Relation.equal (Relation.inter a b) (rel 2 [ [ 3; 4 ] ]));
  check "diff" true (Relation.equal (Relation.diff a b) (rel 2 [ [ 1; 2 ] ]));
  check "product arity" true (Relation.arity (Relation.product a b) = 4);
  check "project" true
    (Relation.equal (Relation.project [ 1 ] a) (rel 1 [ [ 2 ]; [ 4 ] ]));
  check "project swap" true
    (Relation.equal (Relation.project [ 1; 0 ] a) (rel 2 [ [ 2; 1 ]; [ 4; 3 ] ]));
  Alcotest.check_raises "arity mismatch"
    (Relation.Arity_mismatch "union")
    (fun () -> ignore (Relation.union a (rel 1 [ [ 1 ] ])))

let test_cq_eval () =
  let db = db_r [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ] ] in
  (* two-step paths *)
  let q =
    cq [ v "x"; v "z" ]
      [ Atom.make "r" [ v "x"; v "y" ]; Atom.make "r" [ v "y"; v "z" ] ]
  in
  check "paths" true
    (Relation.equal (Cq.eval q db) (rel 2 [ [ 1; 3 ]; [ 2; 1 ]; [ 3; 2 ] ]));
  (* the join agrees with the oracle *)
  check "oracle = join" true (Relation.equal (Oracle.cq_eval q db) (Cq.eval q db));
  (* constants and inequalities *)
  let q2 =
    cq
      ~neqs:[ (v "x", i 2) ]
      [ v "x" ]
      [ Atom.make "r" [ v "x"; v "y" ] ]
  in
  check "neq filter" true (Relation.equal (Cq.eval q2 db) (rel 1 [ [ 1 ]; [ 3 ] ]))

let test_cq_unsat_eqs () =
  Alcotest.check_raises "1 = 2 is unsatisfiable" Cq.Unsatisfiable (fun () ->
      ignore (cq ~eqs:[ (i 1, i 2) ] [ v "x" ] [ Atom.make "r" [ v "x"; v "x" ] ]))

let test_cq_safety () =
  check "unsafe head rejected" true
    (match cq [ v "z" ] [ Atom.make "r" [ v "x"; v "y" ] ] with
    | exception Cq.Unsafe _ -> true
    | _ -> false)

let test_containment_classic () =
  (* q1: paths of length 2; q2: q1 with a relaxed middle *)
  let paths2 =
    cq [ v "x"; v "z" ]
      [ Atom.make "r" [ v "x"; v "y" ]; Atom.make "r" [ v "y"; v "z" ] ]
  in
  let edge_pair =
    cq [ v "x"; v "z" ]
      [ Atom.make "r" [ v "x"; v "y" ]; Atom.make "r" [ v "u"; v "z" ] ]
  in
  check "paths2 <= edge_pair" true (Cq.contained_in paths2 edge_pair);
  check "edge_pair not <= paths2" false (Cq.contained_in edge_pair paths2);
  (* self loop is contained in paths of length 2 *)
  let self_loop = cq [ v "x"; v "x" ] [ Atom.make "r" [ v "x"; v "x" ] ] in
  check "loop <= paths2" true (Cq.contained_in self_loop paths2)

(* The classic case where the single frozen canonical database is not
   enough: with <>, containment needs Klug's partitions. *)
let test_containment_with_neq () =
  (* q1(x) :- r(x,y), r(y,x)        (a 2-cycle through x)
     q2(x) :- r(x,y), y <> x ... q1 is NOT contained in q2: take y = x. *)
  let q1 = cq [ v "x" ] [ Atom.make "r" [ v "x"; v "y" ]; Atom.make "r" [ v "y"; v "x" ] ] in
  let q2 = cq ~neqs:[ (v "y", v "x") ] [ v "x" ] [ Atom.make "r" [ v "x"; v "y" ] ] in
  check "cycle not <= strict edge" false (Cq.contained_in q1 q2);
  (* but the frozen-only test wrongly accepts it *)
  check "frozen-only is incomplete here" true (Cq.contained_in_frozen_only q1 q2);
  (* a query with x <> x is contained in everything *)
  let absurd =
    cq ~neqs:[ (v "x", v "x") ] [ v "x" ] [ Atom.make "r" [ v "x"; v "y" ] ]
  in
  check "absurd <= anything" true (Cq.contained_in absurd q1)

let test_minimize () =
  (* a redundant third atom *)
  let q =
    cq [ v "x"; v "y" ]
      [
        Atom.make "r" [ v "x"; v "y" ];
        Atom.make "r" [ v "x"; v "u" ];
        Atom.make "r" [ v "w"; v "u" ];
      ]
  in
  let m = Cq.minimize q in
  check "minimized to one atom" true (List.length m.Cq.body = 1);
  check "still equivalent" true (Cq.equivalent q m)

let test_ucq () =
  let d1 = cq [ v "x" ] [ Atom.make "r" [ v "x"; i 1 ] ] in
  let d2 = cq [ v "x" ] [ Atom.make "r" [ v "x"; i 2 ] ] in
  let u = Ucq.make [ d1; d2 ] in
  let db = db_r [ [ 7; 1 ]; [ 8; 2 ]; [ 9; 3 ] ] in
  check "ucq eval" true (Relation.equal (Ucq.eval u db) (rel 1 [ [ 7 ]; [ 8 ] ]));
  check "d1 <= u" true (Ucq.contained_in (Ucq.of_cq d1) u);
  check "u not <= d1" false (Ucq.contained_in u (Ucq.of_cq d1));
  (* a disjunct contained in another is dropped by minimize *)
  let narrowed =
    cq [ v "x" ] [ Atom.make "r" [ v "x"; i 1 ]; Atom.make "r" [ v "x"; v "y" ] ]
  in
  let u2 = Ucq.make [ d1; narrowed ] in
  check "minimize drops disjunct" true
    (List.length (Ucq.disjuncts (Ucq.minimize u2)) = 1)

let test_fo_eval () =
  let db = db_r [ [ 1; 2 ]; [ 2; 3 ] ] in
  let closed_under_r =
    Fo.forall_many [ "x"; "y" ]
      (Fo.Implies
         ( Fo.atom "r" [ v "x"; v "y" ],
           Fo.Exists ("z", Fo.atom "r" [ v "y"; v "z" ]) ))
  in
  check "not closed" false (Fo.sentence_holds db closed_under_r);
  let db2 = db_r [ [ 1; 2 ]; [ 2; 1 ] ] in
  check "closed" true (Fo.sentence_holds db2 closed_under_r);
  (* query with negation: sources (no incoming edge) *)
  let sources =
    Fo.query [ "x" ]
      (Fo.conj
         [
           Fo.Exists ("y", Fo.atom "r" [ v "x"; v "y" ]);
           Fo.Not (Fo.Exists ("z", Fo.atom "r" [ v "z"; v "x" ]));
         ])
  in
  check "sources" true (Relation.equal (Fo.eval sources db) (rel 1 [ [ 1 ] ]))

let test_fo_bounded_sat () =
  (* satisfiable: a relation with a loop *)
  let has_loop = Fo.Exists ("x", Fo.atom "r" [ v "x"; v "x" ]) in
  (match Fo.satisfiable_bounded ~max_dom:2 ~max_pool:8 has_loop with
  | Fo.Sat db -> check "model has loop" true (Fo.sentence_holds db has_loop)
  | _ -> Alcotest.fail "expected Sat");
  (* unsatisfiable within bounds: r nonempty and r empty *)
  let contradiction =
    Fo.conj
      [
        Fo.Exists ("x", Fo.atom "u" [ v "x" ]);
        Fo.forall_many [ "x" ] (Fo.Not (Fo.atom "u" [ v "x" ]));
      ]
  in
  check "contradiction unsat" true
    (Fo.satisfiable_bounded ~max_dom:2 ~max_pool:8 contradiction
    = Fo.Unsat_within_bounds)

(* Property: containment implies answer inclusion on random databases. *)
let random_cq rng =
  let var_of n = v (Printf.sprintf "v%d" n) in
  let num_atoms = 1 + Random.State.int rng 2 in
  let body =
    List.init num_atoms (fun _ ->
        Atom.make "r" [ var_of (Random.State.int rng 3); var_of (Random.State.int rng 3) ])
  in
  let head_pool = List.concat_map Atom.vars body in
  let head = [ v (List.nth head_pool (Random.State.int rng (List.length head_pool))) ] in
  cq head body

let prop_containment_sound =
  let gen = QCheck.Gen.int_bound 100000 in
  QCheck.Test.make ~count:60 ~name:"containment implies inclusion of answers"
    (QCheck.make gen)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q1 = random_cq rng and q2 = random_cq rng in
      if Cq.contained_in q1 q2 then begin
        let rows =
          List.init (Random.State.int rng 6) (fun _ ->
              [ Random.State.int rng 3; Random.State.int rng 3 ])
        in
        let db = db_r rows in
        Relation.subset (Cq.eval q1 db) (Cq.eval q2 db)
      end
      else true)

let prop_minimize_preserves =
  let gen = QCheck.Gen.int_bound 100000 in
  QCheck.Test.make ~count:40 ~name:"minimize preserves answers"
    (QCheck.make gen)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = random_cq rng in
      let m = Cq.minimize q in
      let rows =
        List.init (Random.State.int rng 6) (fun _ ->
            [ Random.State.int rng 3; Random.State.int rng 3 ])
      in
      let db = db_r rows in
      Relation.equal (Cq.eval q db) (Cq.eval m db))

(* The optimized FO evaluator agrees with the naive active-domain one on
   random formulas and databases. *)
let prop_fo_eval_agrees =
  let gen = QCheck.Gen.int_bound 100000 in
  QCheck.Test.make ~count:80 ~name:"optimized FO eval = naive FO eval"
    (QCheck.make gen)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let var_of n = Printf.sprintf "v%d" n in
      let term () =
        if Random.State.int rng 4 = 0 then Term.int (Random.State.int rng 3)
        else v (var_of (Random.State.int rng 3))
      in
      let rec formula depth =
        if depth = 0 then Fo.atom "r" [ term (); term () ]
        else
          match Random.State.int rng 6 with
          | 0 -> Fo.And (formula (depth - 1), formula (depth - 1))
          | 1 -> Fo.Or (formula (depth - 1), formula (depth - 1))
          | 2 -> Fo.Not (formula (depth - 1))
          | 3 -> Fo.Exists (var_of (Random.State.int rng 3), formula (depth - 1))
          | 4 -> Fo.eq (term ()) (term ())
          | _ -> Fo.atom "r" [ term (); term () ]
      in
      let body = formula 3 in
      let head = Fo.free_vars body in
      let q = Fo.query head body in
      let rows =
        List.init (Random.State.int rng 5) (fun _ ->
            [ Random.State.int rng 3; Random.State.int rng 3 ])
      in
      let db = db_r rows in
      Relation.equal (Fo.eval q db) (Fo.eval_naive q db))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fo_eval_agrees;
    Alcotest.test_case "relation algebra" `Quick test_relation_algebra;
    Alcotest.test_case "remove arity checked" `Quick test_remove_arity_checked;
    Alcotest.test_case "duplicate atom removed once" `Quick
      test_duplicate_atom_removed_once;
    QCheck_alcotest.to_alcotest prop_join_matches_oracle;
    Alcotest.test_case "cq eval" `Quick test_cq_eval;
    Alcotest.test_case "cq unsat eqs" `Quick test_cq_unsat_eqs;
    Alcotest.test_case "cq safety" `Quick test_cq_safety;
    Alcotest.test_case "containment classic" `Quick test_containment_classic;
    Alcotest.test_case "containment with <>" `Quick test_containment_with_neq;
    Alcotest.test_case "minimize" `Quick test_minimize;
    Alcotest.test_case "ucq" `Quick test_ucq;
    Alcotest.test_case "fo eval" `Quick test_fo_eval;
    Alcotest.test_case "fo bounded sat" `Quick test_fo_bounded_sat;
    QCheck_alcotest.to_alcotest prop_containment_sound;
    QCheck_alcotest.to_alcotest prop_minimize_preserves;
  ]
