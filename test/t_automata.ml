(* Tests for the automata substrate: regexes, NFA/DFA constructions and
   decision procedures, and alternating automata. *)

module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Afa = Automata.Afa
module Word_gen = Automata.Word_gen

let check = Alcotest.(check bool)

let nfa_of s = Nfa.of_regex ~alphabet_size:3 (Regex.parse s)

let all_words n = Word_gen.words_up_to ~alphabet_size:3 n

let test_regex_parse () =
  check "matches" true (Regex.matches (Regex.parse "(ab)*c") [ 0; 1; 0; 1; 2 ]);
  check "no match" false (Regex.matches (Regex.parse "(ab)*c") [ 0; 1; 0 ]);
  check "alt" true (Regex.matches (Regex.parse "a|b") [ 1 ]);
  check "plus" false (Regex.matches (Regex.parse "a+") []);
  check "opt" true (Regex.matches (Regex.parse "a?") []);
  check "empty lang" false (Regex.matches (Regex.parse "0") []);
  check "eps" true (Regex.matches (Regex.parse "1") []);
  Alcotest.check_raises "unbalanced" (Regex.Parse_error "expected ')'")
    (fun () -> ignore (Regex.parse "(ab"))

(* Thompson NFA agrees with the Brzozowski-derivative matcher. *)
let prop_nfa_matches_derivative =
  let gen = QCheck.Gen.oneofl [ "(ab)*c"; "a|bc"; "(a|b)*"; "ab+c?"; "((a|b)c)*"; "a*b*c*" ] in
  QCheck.Test.make ~count:30 ~name:"thompson nfa = derivative matcher"
    (QCheck.make gen)
    (fun s ->
      let r = Regex.parse s in
      let nfa = Nfa.of_regex ~alphabet_size:3 r in
      List.for_all (fun w -> Bool.equal (Regex.matches r w) (Nfa.accepts nfa w)) (all_words 5))

let test_subset_construction () =
  let nfa = nfa_of "(a|b)*abb" in
  let dfa = Dfa.of_nfa nfa in
  List.iter
    (fun w -> check "dfa = nfa" (Nfa.accepts nfa w) (Dfa.accepts dfa w))
    (all_words 6)

(* The adversarial chain family ("k-th symbol from the end is 'a'",
   minimal DFA 2^k states): the lazy engine must clear k = 16, past the
   wall where eager determinization stops being testable. *)
let kth_from_end_nfa k =
  let edges =
    (0, 0, 0) :: (0, 1, 0) :: (0, 0, 1)
    :: List.concat_map
         (fun i -> [ (i, 0, i + 1); (i, 1, i + 1) ])
         (List.init (k - 1) (fun i -> i + 1))
  in
  Nfa.create ~num_states:(k + 1) ~alphabet_size:2 ~starts:[ 0 ] ~finals:[ k ]
    ~edges ~eps_edges:[]

(* [Dfa.of_nfa] is the explorer over eps-closed subsets, forced; it must
   give the level-synchronised construction's DFA state for state (start,
   finals, every row) on arbitrary NFAs: eps edges and cycles, states
   with no successor on a symbol, empty start sets, one to three
   letters. *)
let gen_subset_nfa =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    int_range 1 3 >>= fun k ->
    list_size (int_range 0 (3 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (k - 1)) (int_range 0 (n - 1)))
    >>= fun edges ->
    list_size (int_range 0 4) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun eps_edges ->
    list_size (int_range 0 2) (int_range 0 (n - 1)) >>= fun starts ->
    list_size (int_range 0 n) (int_range 0 (n - 1)) >>= fun finals ->
    return
      (Nfa.create ~num_states:n ~alphabet_size:k ~starts ~finals ~edges
         ~eps_edges))

let prop_subset_construction_reference =
  QCheck.Test.make ~count:500
    ~name:"subset construction = the level-synchronised reference"
    (QCheck.make ~print:(Fmt.to_to_string Nfa.pp) gen_subset_nfa)
    (fun n -> Oracle.same_dfa (Dfa.of_nfa n) (Oracle.of_nfa n))

(* The k-th-symbol-from-the-end chain, 2^k subsets, and a regex NFA with
   eps edges, against the same reference. *)
let test_subset_construction_kchain () =
  List.iter
    (fun k ->
      let n = kth_from_end_nfa k in
      let d = Dfa.of_nfa n in
      Alcotest.(check int) (Printf.sprintf "k=%d: 2^k states" k) (1 lsl k)
        (Dfa.num_states d);
      check (Printf.sprintf "k=%d = reference" k) true
        (Oracle.same_dfa d (Oracle.of_nfa n)))
    [ 4; 8; 12 ];
  let n = nfa_of "((a|b)*c(a|1))*b" in
  check "regex = reference" true (Oracle.same_dfa (Dfa.of_nfa n) (Oracle.of_nfa n))

let test_minimize () =
  let dfa = Dfa.of_nfa (nfa_of "(a|b)*abb") in
  let m = Dfa.minimize dfa in
  check "minimized equivalent" true (Oracle.Eager.equivalent dfa m);
  check "minimized smaller or equal" true (Dfa.num_states m <= Dfa.num_states dfa);
  (* the canonical (a|b)*abb minimal DFA has 4 states, plus the dead state
     absorbing the unused third letter of our alphabet *)
  Alcotest.(check int) "5 states" 5 (Dfa.num_states m)

let test_boolean_ops () =
  let d1 = Dfa.of_nfa (nfa_of "a*") and d2 = Dfa.of_nfa (nfa_of "(aa)*") in
  check "inter = (aa)*" true (Oracle.Eager.equivalent (Oracle.Eager.inter d1 d2) d2);
  check "union = a*" true (Oracle.Eager.equivalent (Oracle.Eager.union d1 d2) d1);
  check "d2 <= d1" true (Oracle.Eager.contains d1 d2);
  check "not d1 <= d2" false (Oracle.Eager.contains d2 d1);
  let odd_a = Dfa.diff d1 d2 in
  check "a in diff" true (Dfa.accepts odd_a [ 0 ]);
  check "aa not in diff" false (Dfa.accepts odd_a [ 0; 0 ])

let test_witness_words () =
  let d = Dfa.of_nfa (nfa_of "ab(a|b)") in
  (match Dfa.shortest_word d with
  | Some w ->
    check "witness accepted" true (Dfa.accepts d w);
    Alcotest.(check int) "length 3" 3 (List.length w)
  | None -> Alcotest.fail "expected a witness");
  check "distinguishing exists" true
    (Option.is_some
       (Dfa.distinguishing_word (Dfa.of_nfa (nfa_of "a")) (Dfa.of_nfa (nfa_of "b"))))

let test_nfa_ops () =
  let u = Nfa.union (nfa_of "ab") (nfa_of "ba") in
  check "union l" true (Nfa.accepts u [ 0; 1 ]);
  check "union r" true (Nfa.accepts u [ 1; 0 ]);
  check "union no" false (Nfa.accepts u [ 0; 0 ]);
  let c = Nfa.concat (nfa_of "a*") (nfa_of "b") in
  check "concat" true (Nfa.accepts c [ 0; 0; 1 ]);
  check "concat no" false (Nfa.accepts c [ 0; 0 ]);
  let r = Nfa.reverse (nfa_of "ab") in
  check "reverse" true (Nfa.accepts r [ 1; 0 ]);
  let i = Nfa.inter (nfa_of "a*b*") (nfa_of "(ab)*") in
  (* intersection: eps and ab *)
  check "inter eps" true (Nfa.accepts i []);
  check "inter ab" true (Nfa.accepts i [ 0; 1 ]);
  check "inter abab" false (Nfa.accepts i [ 0; 1; 0; 1 ]);
  check "inter empty check" false (Nfa.is_empty i)

(* AFA: intersection is expressible with a conjunction of two states. *)
let test_afa_conjunction () =
  (* state 0: start; delta(0, a) = 1 /\ 2 where state 1 tracks "ends after
     even count of a" and 2 tracks "saw no b"... keep it simple: start goes
     to (1 and 2); 1 accepts exactly "a"; 2 accepts exactly "a". *)
  let delta =
    [|
      [| Afa.Fand (Afa.State 1, Afa.State 2); Afa.Ffalse |];
      [| Afa.State 3; Afa.Ffalse |];
      [| Afa.State 3; Afa.Ffalse |];
      [| Afa.Ffalse; Afa.Ffalse |];
    |]
  in
  let afa = Afa.create ~alphabet_size:2 ~start:0 ~finals:[ 3 ] ~delta in
  check "aa accepted" true (Afa.accepts afa [ 0; 0 ]);
  check "a rejected" false (Afa.accepts afa [ 0 ]);
  check "ab rejected" false (Afa.accepts afa [ 0; 1 ])

(* AFA with negation: a single self-negating state accepts exactly the
   even-length words (v_{aw}(s) = ~v_w(s), v_eps(s) = true). *)
let test_afa_negation () =
  let delta = [| [| Afa.Fnot (Afa.State 0) |] |] in
  let afa = Afa.create ~alphabet_size:1 ~start:0 ~finals:[ 0 ] ~delta in
  check "eps accepted" true (Afa.accepts afa []);
  check "odd rejected" false (Afa.accepts afa [ 0 ]);
  check "even accepted" true (Afa.accepts afa [ 0; 0 ]);
  check "nonempty" false (Afa.is_empty afa);
  (* the NFA translation preserves the (non-monotone) language *)
  let nfa = Afa.to_nfa afa in
  List.iter
    (fun w ->
      check "to_nfa agrees" (Afa.accepts afa w) (Automata.Nfa.accepts nfa w))
    (Word_gen.words_up_to ~alphabet_size:1 6)

let prop_afa_nfa_roundtrip =
  let gen = QCheck.Gen.oneofl [ "(ab)*"; "a|b"; "a*b"; "(a|b)*a"; "ab|ba" ] in
  QCheck.Test.make ~count:20 ~name:"afa of_nfa/to_nfa preserves language"
    (QCheck.make gen)
    (fun s ->
      let nfa = Nfa.of_regex ~alphabet_size:2 (Regex.parse s) in
      let afa = Afa.of_nfa nfa in
      let back = Afa.to_nfa afa in
      List.for_all
        (fun w ->
          let d = Nfa.accepts nfa w in
          Bool.equal d (Afa.accepts afa w) && Bool.equal d (Nfa.accepts back w))
        (Word_gen.words_up_to ~alphabet_size:2 5))

let test_afa_emptiness_witness () =
  let nfa = nfa_of "ab*c" in
  let afa = Afa.of_nfa nfa in
  check "nonempty" false (Afa.is_empty afa);
  match Afa.shortest_word afa with
  | Some w ->
    check "witness accepted" true (Nfa.accepts nfa w);
    Alcotest.(check int) "shortest is ac" 2 (List.length w)
  | None -> Alcotest.fail "expected witness"

(* ------------------------------------------------------------------ *)
(* The lazy language engine (Lang) against the eager reference (Dfa)    *)
(* ------------------------------------------------------------------ *)

module Lang = Automata.Lang

(* Random well-formed regex strings over a..c (plus epsilon leaves). *)
let regex_gen =
  QCheck.Gen.(
    sized_size (int_range 0 8)
    @@ fix (fun self n ->
           if n <= 0 then oneofl [ "a"; "b"; "c"; "1" ]
           else
             oneof
               [
                 map2
                   (fun l r -> "(" ^ l ^ r ^ ")")
                   (self (n / 2)) (self (n / 2));
                 map2
                   (fun l r -> "(" ^ l ^ "|" ^ r ^ ")")
                   (self (n / 2)) (self (n / 2));
                 map (fun e -> "(" ^ e ^ ")*") (self (n - 1));
                 oneofl [ "a"; "b"; "c" ];
               ]))

let regex_pair_gen = QCheck.Gen.pair regex_gen regex_gen

(* Random small NFAs: <= 5 states, alphabet 2, arbitrary edges, some
   epsilon edges, nonempty start and final candidate sets. *)
let raw_nfa_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    list_size (int_range 0 (4 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 1) (int_range 0 (n - 1)))
    >>= fun edges ->
    list_size (int_range 0 2)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun eps_edges ->
    list_size (int_range 1 2) (int_range 0 (n - 1)) >>= fun starts ->
    list_size (int_range 0 n) (int_range 0 (n - 1)) >>= fun finals ->
    return (n, edges, eps_edges, starts, finals))

let build_nfa (n, edges, eps_edges, starts, finals) =
  Nfa.create ~num_states:n ~alphabet_size:2 ~starts ~finals ~edges ~eps_edges

let nfa_pair_gen = QCheck.Gen.pair raw_nfa_gen raw_nfa_gen

(* Verdict agreement on regex-derived NFAs: the antichain engine and the
   determinizing reference must decide containment and equivalence
   identically. *)
let prop_lang_agrees_regex =
  QCheck.Test.make ~count:600 ~name:"lang antichain = eager (regex pairs)"
    (QCheck.make regex_pair_gen) (fun (s1, s2) ->
      let n1 = nfa_of s1 and n2 = nfa_of s2 in
      Bool.equal (Lang.contains n1 n2) (Oracle.Eager.nfa_contains n1 n2)
      && Bool.equal (Lang.contains n2 n1) (Oracle.Eager.nfa_contains n2 n1)
      && Bool.equal (Lang.equivalent n1 n2) (Oracle.Eager.nfa_equivalent n1 n2))

(* Same agreement on arbitrary (not regex-shaped) NFAs: junk states,
   unreachable finals, epsilon cycles, empty languages. *)
let prop_lang_agrees_random_nfa =
  QCheck.Test.make ~count:400 ~name:"lang antichain = eager (random nfas)"
    (QCheck.make nfa_pair_gen) (fun (r1, r2) ->
      let n1 = build_nfa r1 and n2 = build_nfa r2 in
      Bool.equal (Lang.contains n1 n2) (Oracle.Eager.nfa_contains n1 n2)
      && Bool.equal (Lang.equivalent n1 n2) (Oracle.Eager.nfa_equivalent n1 n2)
      && Bool.equal (Nfa.is_empty n1) (Dfa.is_empty (Dfa.of_nfa n1)))

(* The non-emptiness witness on an NFA is the shortest word of its
   subset DFA: the NFA accepts it, and no shorter word over the two
   letters is accepted (a shortest accepting path visits each of the at
   most five states once, so those words are few). *)
let prop_nfa_witness_shortest =
  QCheck.Test.make ~count:300 ~name:"nfa witness: shortest accepted word"
    (QCheck.make raw_nfa_gen) (fun raw ->
      let nfa = build_nfa raw in
      let rec words n =
        if n = 0 then [ [] ]
        else List.concat_map (fun w -> [ 0 :: w; 1 :: w ]) (words (n - 1))
      in
      match Dfa.shortest_word (Dfa.of_nfa nfa) with
      | None -> Nfa.is_empty nfa
      | Some w ->
        Nfa.accepts nfa w
        && List.for_all
             (fun n -> not (List.exists (Nfa.accepts nfa) (words n)))
             (List.init (List.length w) Fun.id))

(* Counterexample validity and minimality: a containment witness lies in
   L(sub) \ L(sup) and has the length of the eager engine's shortest
   witness; an equivalence witness is accepted by exactly one side. *)
let prop_lang_cex_valid =
  QCheck.Test.make ~count:300 ~name:"lang counterexamples valid and shortest"
    (QCheck.make regex_pair_gen) (fun (s1, s2) ->
      let n1 = nfa_of s1 and n2 = nfa_of s2 in
      let contain_ok =
        match Lang.contains_cex n1 n2 with
        | None -> Oracle.Eager.nfa_contains n1 n2
        | Some w ->
          Nfa.accepts n2 w
          && (not (Nfa.accepts n1 w))
          && (match Oracle.Eager.nfa_contains_cex n1 n2 with
             | Some w' -> List.length w = List.length w'
             | None -> false)
      in
      let equiv_ok =
        match Lang.equivalent_cex n1 n2 with
        | None -> Oracle.Eager.nfa_equivalent n1 n2
        | Some w ->
          not (Bool.equal (Nfa.accepts n1 w) (Nfa.accepts n2 w))
      in
      contain_ok && equiv_ok)

(* [Dfa.distinguishing_word] against brute force over every word of up to
   five letters: its witness is accepted by exactly one side and no
   shorter word is; [None] means no word up to the bound tells the two
   apart.  The antichain engine's witness, a shortest word of the first
   non-empty difference, is never shorter. *)
let prop_distinguishing_word_shortest =
  QCheck.Test.make ~count:300
    ~name:"distinguishing_word is a shortest distinguishing word"
    (QCheck.make regex_pair_gen) (fun (s1, s2) ->
      let n1 = nfa_of s1 and n2 = nfa_of s2 in
      let d1 = Dfa.of_nfa n1 and d2 = Dfa.of_nfa n2 in
      let bound = 5 in
      let brute =
        List.find_opt
          (fun w -> not (Bool.equal (Dfa.accepts d1 w) (Dfa.accepts d2 w)))
          (all_words bound)
      in
      match (Dfa.distinguishing_word d1 d2, Lang.equivalent_cex n1 n2) with
      | None, None -> brute = None
      | Some w, Some w' ->
        (not (Bool.equal (Dfa.accepts d1 w) (Dfa.accepts d2 w)))
        && (match brute with
           | Some b -> List.length w = List.length b
           | None -> List.length w > bound)
        && List.length w <= List.length w'
      | _ -> false)

(* Metering by hooks: an [on_pair] that raises after [max_states] pairs
   stops the search with its own exception, never with a verdict, and
   whenever the hooked run does answer, the answer (witness included) is
   the unhooked one. *)
let prop_lang_budget_sound =
  QCheck.Test.make ~count:200 ~name:"lang budget trips are never verdicts"
    (QCheck.make (QCheck.Gen.pair regex_pair_gen (QCheck.Gen.int_range 1 4)))
    (fun ((s1, s2), max_states) ->
      let n1 = nfa_of s1 and n2 = nfa_of s2 in
      let exception Stop in
      let pairs = ref 0 in
      let on_pair () =
        if !pairs >= max_states then raise Stop;
        incr pairs
      in
      match Lang.equivalent_cex ~on_pair n1 n2 with
      | exception Stop -> !pairs = max_states
      | v -> v = Lang.equivalent_cex n1 n2)

let test_lang_kchain_16 () =
  let n = kth_from_end_nfa 16 in
  check "k=16 self-union equivalent" true
    (Lang.equivalent n (Nfa.union n n));
  check "k=16 vs k=17 inequivalent" false
    (Lang.equivalent n (kth_from_end_nfa 17));
  match Lang.contains_cex (kth_from_end_nfa 17) n with
  | Some w -> check "cex valid at k=16" true (Nfa.accepts n w)
  | None -> Alcotest.fail "expected a containment counterexample"

(* Exploration is sequential: verdicts and witness words are bit-for-bit
   identical at every domain-pool size. *)
let test_lang_jobs_deterministic () =
  let pairs =
    [
      ("(ab)*", "(ab)*ab");
      ("(a|b)*a", "(a|b)*");
      ("a*b*", "(a|b)*");
      ("(abc)*", "(abc)*abc");
      ("a|b|c", "c|b|a");
    ]
  in
  let run () =
    List.map
      (fun (s1, s2) ->
        let n1 = nfa_of s1 and n2 = nfa_of s2 in
        (Lang.equivalent_cex n1 n2, Lang.contains_cex n1 n2))
      pairs
  in
  let before = Par.Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.set_jobs (Some before))
    (fun () ->
      Par.Pool.set_jobs (Some 1);
      let r1 = run () in
      Par.Pool.set_jobs (Some 4);
      let r4 = run () in
      check "jobs 1 = jobs 4" true (r1 = r4))

let suite =
  [
    Alcotest.test_case "regex parse" `Quick test_regex_parse;
    QCheck_alcotest.to_alcotest prop_nfa_matches_derivative;
    Alcotest.test_case "subset construction" `Quick test_subset_construction;
    QCheck_alcotest.to_alcotest prop_subset_construction_reference;
    Alcotest.test_case "subset construction = reference on k-chains" `Quick
      test_subset_construction_kchain;
    Alcotest.test_case "minimize" `Quick test_minimize;
    Alcotest.test_case "boolean ops" `Quick test_boolean_ops;
    Alcotest.test_case "witness words" `Quick test_witness_words;
    Alcotest.test_case "nfa ops" `Quick test_nfa_ops;
    Alcotest.test_case "afa conjunction" `Quick test_afa_conjunction;
    Alcotest.test_case "afa negation" `Quick test_afa_negation;
    QCheck_alcotest.to_alcotest prop_afa_nfa_roundtrip;
    Alcotest.test_case "afa emptiness witness" `Quick test_afa_emptiness_witness;
    QCheck_alcotest.to_alcotest prop_lang_agrees_regex;
    QCheck_alcotest.to_alcotest prop_lang_agrees_random_nfa;
    QCheck_alcotest.to_alcotest prop_nfa_witness_shortest;
    QCheck_alcotest.to_alcotest prop_lang_cex_valid;
    QCheck_alcotest.to_alcotest prop_distinguishing_word_shortest;
    QCheck_alcotest.to_alcotest prop_lang_budget_sound;
    Alcotest.test_case "lang k-chain k=16" `Quick test_lang_kchain_16;
    Alcotest.test_case "lang jobs determinism" `Quick test_lang_jobs_deterministic;
  ]
