(* Tests for answering queries using views: expansion, the bucket-style
   equivalent-rewriting search, and the CGLV regular-language rewriting. *)

module R = Relational
module Term = R.Term
module Atom = R.Atom
module Cq = R.Cq
module Ucq = R.Ucq
module Relation = R.Relation
module Database = R.Database
module Schema = R.Schema
module View = Rewriting.View
module Expand = Rewriting.Expand
module Bucket = Rewriting.Bucket
module Regex_rewrite = Rewriting.Regex_rewrite
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa

let check = Alcotest.(check bool)
let v = Term.var
let cq ?eqs ?neqs head body = Cq.make ?eqs ?neqs ~head ~body ()

(* base schema: e/2 *)
let v_edge = View.make "ve" (cq [ v "x"; v "y" ] [ Atom.make "e" [ v "x"; v "y" ] ])

let v_path2 =
  View.make "v2"
    (cq [ v "x"; v "z" ] [ Atom.make "e" [ v "x"; v "y" ]; Atom.make "e" [ v "y"; v "z" ] ])

let test_expand () =
  (* rewriting: 4-paths as two uses of v2 *)
  let r =
    cq [ v "a"; v "c" ] [ Atom.make "v2" [ v "a"; v "b" ]; Atom.make "v2" [ v "b"; v "c" ] ]
  in
  let e = Expand.expand_cq [ v_path2 ] r in
  Alcotest.(check int) "four base atoms" 4 (List.length e.Cq.body);
  (* expansion is equivalent to the direct 4-path query *)
  let q4 =
    cq [ v "a"; v "e" ]
      [
        Atom.make "e" [ v "a"; v "b" ];
        Atom.make "e" [ v "b"; v "c" ];
        Atom.make "e" [ v "c"; v "d" ];
        Atom.make "e" [ v "d"; v "e" ];
      ]
  in
  check "expansion equivalent to 4-path" true (Cq.equivalent e q4)

let test_equivalent_rewriting_found () =
  (* goal: 2-paths; view v2 is exactly that *)
  let goal =
    Ucq.of_cq
      (cq [ v "x"; v "z" ] [ Atom.make "e" [ v "x"; v "y" ]; Atom.make "e" [ v "y"; v "z" ] ])
  in
  match Bucket.equivalent_rewriting ~max_atoms:2 [ v_path2 ] goal with
  | Bucket.Equivalent rw ->
    let e = Expand.expand_ucq [ v_path2 ] rw in
    check "expansion equivalent" true (Ucq.equivalent e goal)
  | _ -> Alcotest.fail "expected an equivalent rewriting"

let test_equivalent_rewriting_composed () =
  (* goal: 4-paths from two copies of v2 *)
  let goal =
    Ucq.of_cq
      (cq [ v "a"; v "e" ]
         [
           Atom.make "e" [ v "a"; v "b" ];
           Atom.make "e" [ v "b"; v "c" ];
           Atom.make "e" [ v "c"; v "d" ];
           Atom.make "e" [ v "d"; v "e" ];
         ])
  in
  match Bucket.equivalent_rewriting ~max_atoms:2 [ v_path2 ] goal with
  | Bucket.Equivalent rw ->
    check "uses two view atoms" true
      (List.for_all (fun d -> List.length d.Cq.body = 2) (Ucq.disjuncts rw));
    check "expansion equivalent" true
      (Ucq.equivalent (Expand.expand_ucq [ v_path2 ] rw) goal)
  | _ -> Alcotest.fail "expected an equivalent rewriting"

let test_no_equivalent_rewriting () =
  (* goal: single edges; only the 2-path view is available *)
  let goal = Ucq.of_cq (cq [ v "x"; v "y" ] [ Atom.make "e" [ v "x"; v "y" ] ]) in
  (match Bucket.equivalent_rewriting ~max_atoms:2 [ v_path2 ] goal with
  | Bucket.Equivalent _ -> Alcotest.fail "no equivalent rewriting should exist"
  | Bucket.Only_contained _ | Bucket.No_rewriting -> ());
  (* with the edge view it is trivial *)
  match Bucket.equivalent_rewriting ~max_atoms:1 [ v_edge ] goal with
  | Bucket.Equivalent _ -> ()
  | _ -> Alcotest.fail "edge view rewrites the goal"

(* Maximally-contained rewriting answers agree with certain answers on the
   materialized views. *)
let test_maximally_contained_eval () =
  let goal =
    Ucq.of_cq
      (cq [ v "a"; v "c" ]
         [ Atom.make "e" [ v "a"; v "b" ]; Atom.make "e" [ v "b"; v "c" ] ])
  in
  let views = [ v_path2 ] in
  let mc = Bucket.maximally_contained ~max_atoms:2 views goal in
  let base =
    List.fold_left
      (fun db (a, b) ->
        Database.add_tuple "e"
          (R.Tuple.of_list [ R.Value.int a; R.Value.int b ])
          db)
      (Database.empty (Schema.of_list [ ("e", 2) ]))
      [ (1, 2); (2, 3); (3, 4) ]
  in
  let extensions = View.materialize views base in
  let answers = Ucq.eval mc extensions in
  check "sound" true (Relation.subset answers (Ucq.eval goal base));
  check "finds the view tuples" true
    (Relation.mem (R.Tuple.of_list [ R.Value.int 1; R.Value.int 3 ]) answers)

(* ------------------------------------------------------------------ *)
(* Regular rewriting (CGLV)                                            *)
(* ------------------------------------------------------------------ *)

let nfa s = Nfa.of_regex ~alphabet_size:2 (Regex.parse s)

let test_regex_rewrite_exact () =
  (* target (ab)*; views: E0 = ab.  Rewriting: V0* *)
  (match Regex_rewrite.rewrite ~target:(nfa "(ab)*") ~views:[ nfa "ab" ] () with
  | Regex_rewrite.Exact m ->
    check "eps in M" true (Dfa.accepts m []);
    check "V0 in M" true (Dfa.accepts m [ 0 ]);
    check "V0V0 in M" true (Dfa.accepts m [ 0; 0 ])
  | _ -> Alcotest.fail "expected exact rewriting");
  (* target a(ba)*b = (ab)+; views ab: exact, M = V0+ *)
  match Regex_rewrite.rewrite ~target:(nfa "a(ba)*b") ~views:[ nfa "ab" ] () with
  | Regex_rewrite.Exact m -> check "V0 in M" true (Dfa.accepts m [ 0 ])
  | _ -> Alcotest.fail "expected exact rewriting"

let test_regex_rewrite_maximal_only () =
  (* target (ab)|(ba); views: ab only — the maximal rewriting misses ba *)
  match Regex_rewrite.rewrite ~target:(nfa "ab|ba") ~views:[ nfa "ab" ] () with
  | Regex_rewrite.Maximal m ->
    check "V0 in M" true (Dfa.accepts m [ 0 ]);
    check "M not empty" false (Dfa.is_empty m)
  | _ -> Alcotest.fail "expected a merely-maximal rewriting"

let test_regex_rewrite_empty () =
  (* no view word fits inside the target at all *)
  match Regex_rewrite.rewrite ~target:(nfa "aa") ~views:[ nfa "b" ] () with
  | Regex_rewrite.Empty_rewriting -> ()
  | _ -> Alcotest.fail "expected empty rewriting"

let test_regex_rewrite_two_views () =
  (* target (a|b)*; views a and b: M = (V0|V1)* *)
  match Regex_rewrite.rewrite ~target:(nfa "(a|b)*") ~views:[ nfa "a"; nfa "b" ] () with
  | Regex_rewrite.Exact m ->
    check "mixed word" true (Dfa.accepts m [ 0; 1; 1; 0 ])
  | _ -> Alcotest.fail "expected exact rewriting"

(* Soundness property: every word of the maximal rewriting expands inside
   the target. *)
let prop_rewrite_sound =
  let cases =
    [ ("(ab)*", [ "ab"; "abab" ]); ("(a|b)*", [ "a"; "b" ]); ("a*", [ "a"; "aa" ]) ]
  in
  QCheck.Test.make ~count:20 ~name:"maximal rewriting expansion is contained"
    (QCheck.make (QCheck.Gen.oneofl cases))
    (fun (target_s, view_ss) ->
      let target = nfa target_s in
      let views = List.map nfa view_ss in
      let m = Regex_rewrite.maximal_rewriting ~target ~views in
      let e = Regex_rewrite.expansion ~views m in
      Oracle.Eager.nfa_contains target e)

let suite =
  [
    Alcotest.test_case "expand" `Quick test_expand;
    Alcotest.test_case "equivalent rewriting found" `Quick test_equivalent_rewriting_found;
    Alcotest.test_case "equivalent rewriting composed" `Quick test_equivalent_rewriting_composed;
    Alcotest.test_case "no equivalent rewriting" `Quick test_no_equivalent_rewriting;
    Alcotest.test_case "maximally contained eval" `Quick test_maximally_contained_eval;
    Alcotest.test_case "regex rewrite exact" `Quick test_regex_rewrite_exact;
    Alcotest.test_case "regex rewrite maximal" `Quick test_regex_rewrite_maximal_only;
    Alcotest.test_case "regex rewrite empty" `Quick test_regex_rewrite_empty;
    Alcotest.test_case "regex rewrite two views" `Quick test_regex_rewrite_two_views;
    QCheck_alcotest.to_alcotest prop_rewrite_sound;
  ]
