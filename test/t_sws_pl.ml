(* Tests for SWS(PL, PL): runs, the AFA translation, the nonrecursive
   unfolding, and the Roman-model encoding. *)

module Prop = Proplogic.Prop
module Sat = Proplogic.Sat
module Afa = Automata.Afa
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Word_gen = Automata.Word_gen
open Sws

let check = Alcotest.(check bool)

(* Figure 1(b)-shaped service: the start checks airfare, hotel and the
   "local" pair (ticket preferred over car) in parallel.
   X = X1 /\ X2 /\ X3 with X3 = Y1 \/ (~Y1 /\ Y2). *)
let travel_pl =
  let v = Prop.var in
  let final synth = { Sws_def.succs = []; synth } in
  Sws_pl.make
    ~input_vars:[ "a"; "h"; "t"; "c" ]
    ~start:"q0"
    ~rules:
      [
        ( "q0",
          {
            Sws_def.succs =
              [
                ("qa", Prop.True); ("qh", Prop.True); ("qt", Prop.True); ("qc", Prop.True);
              ];
            synth =
              Prop.conj
                [
                  v "act1";
                  v "act2";
                  Prop.Or (v "act3", Prop.And (Prop.Not (v "act3"), v "act4"));
                ];
          } );
        ("qa", final (v "a"));
        ("qh", final (v "h"));
        ("qt", final (v "t"));
        ("qc", final (v "c"));
      ]

let assignment = Prop.assignment_of_list

(* Inputs: the root consumes I_1; the leaves consume I_2. *)
let travel_inputs l = [ assignment []; assignment l ]

let test_travel_run () =
  check "all found" true (Sws_pl.run travel_pl (travel_inputs [ "a"; "h"; "t" ]));
  check "car fallback" true (Sws_pl.run travel_pl (travel_inputs [ "a"; "h"; "c" ]));
  check "no hotel" false (Sws_pl.run travel_pl (travel_inputs [ "a"; "t" ]));
  check "no local" false (Sws_pl.run travel_pl (travel_inputs [ "a"; "h" ]));
  check "too short" false (Sws_pl.run travel_pl [ assignment [ "a" ] ]);
  check "empty input" false (Sws_pl.run travel_pl [])

let test_travel_not_recursive () =
  check "nonrecursive" false (Sws_pl.is_recursive travel_pl);
  Alcotest.(check (option int)) "depth" (Some 1) (Sws_pl.depth travel_pl)

(* A recursive service: odd number of 'x' inputs so far, in AFA style. *)
let parity_pl =
  let v = Prop.var in
  Sws_pl.make ~input_vars:[ "x" ] ~start:"q0"
    ~rules:
      [
        ( "q0",
          {
            Sws_def.succs = [ ("even", Prop.True) ];
            synth = v "act1";
          } );
        ( "even",
          {
            Sws_def.succs = [ ("even", Prop.Not (v Sws_pl.msg_var)); ("stop", v "@msg") ];
            synth = Prop.Or (v "act1", v "act2");
          } );
        ("stop", { Sws_def.succs = []; synth = v Sws_pl.msg_var });
      ]

let test_recursive_flag () = check "recursive" true (Sws_pl.is_recursive parity_pl)

(* The vector DFA, forced, accepts the reversal of exactly the words
   direct runs answer with true, on all short words. *)
let afa_agrees name sws max_len () =
  let vdfa = Dfa.Explorer.force (Sws_pl.explore sws) in
  List.iter
    (fun w ->
      let direct = Sws_pl.accepts_word sws w in
      let via_afa = Dfa.accepts vdfa (List.rev w) in
      check
        (Fmt.str "%s on %a" name Word_gen.pp_word w)
        direct via_afa)
    (Word_gen.words_up_to ~alphabet_size:(Sws_pl.alphabet_size sws) max_len)

(* Nonrecursive unfolding agrees with direct runs. *)
let test_unfold_agrees () =
  let d = Option.get (Sws_pl.depth travel_pl) in
  List.iter
    (fun n ->
      let formula = Sws_pl.unfold travel_pl ~n in
      (* check on all assignments of the timed variables *)
      let timed_vars =
        List.concat_map
          (fun j -> List.map (fun x -> Sws_pl.timed_var x j) (Sws_pl.input_vars travel_pl))
          (List.init n (fun i -> i + 1))
      in
      List.iter
        (fun a ->
          let inputs =
            List.init n (fun j ->
                List.fold_left
                  (fun acc x ->
                    if Prop.assignment_mem (Sws_pl.timed_var x (j + 1)) a then
                      Prop.Sset.add x acc
                    else acc)
                  Prop.Sset.empty (Sws_pl.input_vars travel_pl))
          in
          check
            (Fmt.str "unfold n=%d" n)
            (Sws_pl.run travel_pl inputs)
            (Prop.eval a formula))
        (Prop.all_assignments timed_vars))
    [ 0; 1; d + 1 ]

(* Roman encoding: language preserved. *)
let test_roman_pl () =
  (* DFA over {a, b}: words with an even number of 'b' ending in 'a' *)
  let dfa =
    Dfa.create ~alphabet_size:2 ~start:0 ~finals:[ 1 ]
      ~trans:[| [| 1; 2 |]; [| 1; 2 |]; [| 3; 0 |]; [| 3; 0 |] |]
  in
  let sws = Roman.dfa_to_sws_pl dfa in
  check "roman sws is recursive" true (Sws_pl.is_recursive sws);
  List.iter
    (fun w ->
      check
        (Fmt.str "roman %a" Word_gen.pp_word w)
        (Dfa.accepts dfa w)
        (Sws_pl.run sws (Roman.encode_input w)))
    (Word_gen.words_up_to ~alphabet_size:2 5)

let test_roman_cq () =
  let dfa =
    Dfa.create ~alphabet_size:2 ~start:0 ~finals:[ 0 ]
      ~trans:[| [| 1; 0 |]; [| 0; 1 |] |]
  in
  let nfa = Dfa.to_nfa dfa in
  let sws = Roman.to_sws_cq nfa in
  let empty_db = Relational.Database.empty (Sws_data.db_schema sws) in
  List.iter
    (fun w ->
      let out = Sws_data.run sws empty_db (Roman.encode_input_cq w) in
      check
        (Fmt.str "roman-cq %a" Word_gen.pp_word w)
        (Dfa.accepts dfa w)
        (not (Relational.Relation.is_empty out)))
    (Word_gen.words_up_to ~alphabet_size:2 4)

(* QCheck: random NFAs round-trip through the PL encoding. *)
let random_nfa_gen =
  QCheck.Gen.(
    let* num_states = int_range 1 4 in
    let* num_edges = int_range 0 8 in
    let* edges =
      list_repeat num_edges
        (triple (int_bound (num_states - 1)) (int_bound 1) (int_bound (num_states - 1)))
    in
    let* finals = list_repeat num_states bool in
    let finals =
      List.filteri (fun i _ -> List.nth finals i) (List.init num_states Fun.id)
    in
    return
      (Nfa.create ~num_states ~alphabet_size:2 ~starts:[ 0 ] ~finals ~edges
         ~eps_edges:[]))

let prop_roman_preserves_language =
  QCheck.Test.make ~count:60 ~name:"roman encoding preserves the language"
    (QCheck.make random_nfa_gen)
    (fun nfa ->
      let sws = Roman.to_sws_pl nfa in
      List.for_all
        (fun w ->
          Bool.equal (Nfa.accepts nfa w) (Sws_pl.run sws (Roman.encode_input w)))
        (Word_gen.words_up_to ~alphabet_size:2 4))

(* Regression: Thompson-constructed NFAs carry epsilon transitions; the
   Roman encoding must remove them first. *)
let test_roman_epsilon () =
  let nfa =
    Nfa.of_regex ~alphabet_size:2 (Automata.Regex.parse "(ab)+")
  in
  let sws = Roman.to_sws_pl nfa in
  List.iter
    (fun w ->
      check
        (Fmt.str "thompson %a" Word_gen.pp_word w)
        (Nfa.accepts nfa w)
        (Sws_pl.run sws (Roman.encode_input w)))
    (Word_gen.words_up_to ~alphabet_size:2 5)

(* The vector-DFA chain (vector DFA -> NFA -> DFA) must answer exactly as
   the transient AFA does: the same shortest witness and the same
   language NFA, on regex-derived (Roman) services and on the SAT
   reduction's services. *)
let gen_regex =
  let module Re = Automata.Regex in
  QCheck.Gen.(
    sized_size (0 -- 3)
    @@ fix (fun self n ->
           if n = 0 then frequency [ (4, map Re.sym (0 -- 1)); (1, return Re.Eps) ]
           else
             let sub = self (n - 1) in
             frequency
               [
                 (2, map2 (fun a b -> Re.Alt (a, b)) sub sub);
                 (3, map2 (fun a b -> Re.Seq (a, b)) sub sub);
                 (1, map Re.star sub);
                 (1, self 0);
               ]))

let gen_prop =
  let v = Prop.var in
  QCheck.Gen.(
    sized_size (0 -- 4)
    @@ fix (fun self n ->
           if n = 0 then oneofl [ v "x"; v "y"; v "z"; Prop.True; Prop.False ]
           else
             oneof
               [
                 map (fun f -> Prop.Not f) (self (n - 1));
                 map2 (fun f g -> Prop.And (f, g)) (self (n - 1)) (self (n - 1));
                 map2 (fun f g -> Prop.Or (f, g)) (self (n - 1)) (self (n - 1));
                 self 0;
               ]))

let gen_chain_service =
  QCheck.Gen.(
    oneof
      [
        map
          (fun r -> Roman.to_sws_pl (Nfa.of_regex ~alphabet_size:2 r))
          gen_regex;
        map Reductions.sws_of_sat gen_prop;
      ])

let prop_chain_matches_afa =
  QCheck.Test.make ~count:60
    ~name:"vector-DFA chain matches the transient AFA (witness, language nfa)"
    (QCheck.make gen_chain_service)
    (fun sws ->
      (* answer from the chain, not from an earlier equal service's memo *)
      Engine.cache_clear_all ();
      let afa = Oracle.to_afa sws in
      let decode = List.map (Sws_pl.assignment_of_symbol sws) in
      let witness_agrees =
        match (Decision.pl_non_emptiness sws, Afa.shortest_word afa) with
        | Decision.Yes w, Some w' -> List.equal Prop.Sset.equal w (decode w')
        | Decision.No, None -> true
        | _ -> false
      in
      witness_agrees
      && String.equal
           (Nfa.canonical_repr (Compose.pl_language_nfa sws))
           (Nfa.canonical_repr (Afa.to_nfa afa)))

(* The reference AFA reads every query as a direct run does. *)
let prop_afa_matches_runs =
  QCheck.Test.make ~count:30 ~name:"to_afa agrees with direct runs (random services)"
    (QCheck.make gen_chain_service)
    (fun sws ->
      let afa = Oracle.to_afa sws in
      List.for_all
        (fun w -> Sws_pl.accepts_word sws w = Afa.accepts afa w)
        (Word_gen.words_up_to ~alphabet_size:(Sws_pl.alphabet_size sws) 2))

(* {1 The vector DFA, explored on demand} *)

module X = Dfa.Explorer

(* Random AFAs with full Boolean conditions (negation included): at most
   four states over one to three symbols. *)
let gen_afa_of_size k =
  QCheck.Gen.(
    1 -- 4 >>= fun n ->
    let form =
      sized_size (0 -- 3)
      @@ fix (fun self d ->
             if d = 0 then
               frequency
                 [ (4, map (fun q -> Afa.State q) (0 -- (n - 1)));
                   (1, oneofl [ Afa.Ftrue; Afa.Ffalse ]) ]
             else
               frequency
                 [ (1, map (fun f -> Afa.Fnot f) (self (d - 1)));
                   (2, map2 (fun f g -> Afa.Fand (f, g)) (self (d - 1)) (self (d - 1)));
                   (2, map2 (fun f g -> Afa.For (f, g)) (self (d - 1)) (self (d - 1)));
                   (1, self 0) ])
    in
    array_repeat n (array_repeat k form) >>= fun delta ->
    0 -- (n - 1) >>= fun start ->
    list_size (0 -- n) (0 -- (n - 1)) >>= fun finals ->
    return (Afa.create ~alphabet_size:k ~start ~finals ~delta))

(* Pairs over one alphabet: two random AFAs, or the AFAs of two Roman
   services built from random regexes. *)
let gen_afa_pair =
  let roman r = Oracle.to_afa (Roman.to_sws_pl (Nfa.of_regex ~alphabet_size:2 r)) in
  QCheck.Gen.(
    oneof
      [
        (1 -- 3 >>= fun k -> pair (gen_afa_of_size k) (gen_afa_of_size k));
        map2 (fun r1 r2 -> (roman r1, roman r2)) gen_regex gen_regex;
      ])

(* A fresh explorer answers every question as the fully built DFA does:
   the shortest accepted, rejected and distinguishing words are equal,
   though the explorer numbers states in its search's order.  Forcing
   every row gives the eager builder's DFA state for state. *)
let prop_explorer_matches_forced =
  QCheck.Test.make ~count:300
    ~name:"lazy vector DFA = forced DFA (witnesses, states)"
    (QCheck.make gen_afa_pair)
    (fun (a1, a2) ->
      let d1 = Afa.reverse_vector_dfa a1 and d2 = Afa.reverse_vector_dfa a2 in
      let k = Afa.alphabet_size a1 in
      let all_words =
        Dfa.create ~alphabet_size:k ~start:0 ~finals:[ 0 ] ~trans:[| Array.make k 0 |]
      in
      Oracle.same_dfa d1 (Oracle.reverse_vector_dfa a1)
      && Oracle.same_dfa d2 (Oracle.reverse_vector_dfa a2)
      && X.shortest_word (Afa.explore a1) = Dfa.shortest_word d1
      && X.distinguishing_word (Afa.explore a1) (X.of_dfa all_words)
         = Dfa.distinguishing_word d1 all_words
      && X.distinguishing_word (Afa.explore a1) (Afa.explore a2)
         = Dfa.distinguishing_word d1 d2)

(* "The k-th symbol from the end is a", over {a, b}, as in perfbench's
   k-chain kernel: its service's vector DFA has 2^(k+1) + 1 states. *)
let kchain_nfa k =
  let edges =
    (0, 0, 0) :: (0, 1, 0) :: (0, 0, 1)
    :: List.concat_map (fun i -> [ (i, 0, i + 1); (i, 1, i + 1) ]) (List.init (k - 1) (fun i -> i + 1))
  in
  Nfa.create ~num_states:(k + 1) ~alphabet_size:2 ~starts:[ 0 ] ~finals:[ k ] ~edges
    ~eps_edges:[]

(* The searches compute the rows they reach and no more: on the k = 12
   chain's 8,193-state vector DFA, a shortest rejected word computes no
   row and a shortest accepted word 2,050. *)
let test_explorer_is_lazy () =
  let sws = Reductions.sws_of_afa (Afa.of_nfa (kchain_nfa 12)) in
  let forced = Sws_pl.explore sws in
  let full = Dfa.num_states (X.force forced) in
  Alcotest.(check int) "the vector DFA" 8193 full;
  Alcotest.(check int) "forcing computes every row" full (X.rows_computed forced);
  let k = Sws_pl.alphabet_size sws in
  let all_words =
    Dfa.create ~alphabet_size:k ~start:0 ~finals:[ 0 ] ~trans:[| Array.make k 0 |]
  in
  let rejected = Sws_pl.explore sws in
  check "a rejected word" true
    (X.distinguishing_word rejected (X.of_dfa all_words) <> None);
  let accepted = Sws_pl.explore sws in
  (match X.shortest_word accepted with
  | Some w -> Alcotest.(check int) "the shortest accepted word" 14 (List.length w)
  | None -> Alcotest.fail "the k-chain language is not empty");
  Alcotest.(check int) "rejected: no row" 0 (X.rows_computed rejected);
  Alcotest.(check int) "accepted: 2,050 rows" 2050 (X.rows_computed accepted)

(* Random services straight from Definition 2.1, with every connective
   of the query language ([Not], [Implies] and [Iff] included): up to
   four states besides the start, over [nvars] input variables. *)
let gen_service nvars =
  let open QCheck.Gen in
  let inputs = List.init nvars (Printf.sprintf "x%d") in
  let query leaves =
    sized_size (0 -- 3)
    @@ fix (fun self d ->
           if d = 0 then
             frequency
               [ (4, map Prop.var (oneofl leaves));
                 (1, oneofl [ Prop.True; Prop.False ]) ]
           else
             let sub = self (d - 1) in
             frequency
               [ (1, map (fun f -> Prop.Not f) sub);
                 (2, map2 (fun f g -> Prop.And (f, g)) sub sub);
                 (2, map2 (fun f g -> Prop.Or (f, g)) sub sub);
                 (1, map2 (fun f g -> Prop.Implies (f, g)) sub sub);
                 (1, map2 (fun f g -> Prop.Iff (f, g)) sub sub);
                 (1, self 0) ])
  in
  let env = Sws_pl.msg_var :: inputs in
  1 -- 4 >>= fun n ->
  let names = List.init n (Printf.sprintf "q%d") in
  let rule =
    0 -- 3 >>= function
    | 0 -> map (fun synth -> { Sws_def.succs = []; synth }) (query env)
    | m ->
      list_repeat m (pair (oneofl names) (query env)) >>= fun succs ->
      map
        (fun synth -> { Sws_def.succs; synth })
        (query (List.init m Sws_pl.act_var))
  in
  list_repeat (n + 1) rule >>= fun rules ->
  return
    (Sws_pl.make ~input_vars:inputs ~start:"s"
       ~rules:(List.combine ("s" :: names) rules))

(* Two services over one alphabet: random ones over one to three input
   variables or, so that masks span several words, six to eight (64 to
   256 symbols); two Roman services; or one of the chain services above
   twice. *)
let gen_service_pair =
  let roman r = Roman.to_sws_pl (Nfa.of_regex ~alphabet_size:2 r) in
  QCheck.Gen.(
    oneof
      [
        (1 -- 3 >>= fun v -> pair (gen_service v) (gen_service v));
        (6 -- 8 >>= fun v -> pair (gen_service v) (gen_service v));
        map2 (fun r1 r2 -> (roman r1, roman r2)) gen_regex gen_regex;
        map (fun s -> (s, s)) gen_chain_service;
      ])

(* The bit-sliced explorer steps every vector as the reference AFA does:
   forced, it is the AFA's vector DFA state for state, and fresh
   explorers find the same shortest accepted, rejected and
   distinguishing words. *)
let prop_explore_matches_oracle =
  QCheck.Test.make ~count:200
    ~name:"Sws_pl.explore = the reference AFA's vector DFA (states, witnesses)"
    (QCheck.make gen_service_pair)
    (fun (s1, s2) ->
      let a1 = Oracle.to_afa s1 and a2 = Oracle.to_afa s2 in
      let k = Sws_pl.alphabet_size s1 in
      let all_words =
        X.of_dfa
          (Dfa.create ~alphabet_size:k ~start:0 ~finals:[ 0 ]
             ~trans:[| Array.make k 0 |])
      in
      Oracle.same_dfa (X.force (Sws_pl.explore s1)) (Afa.reverse_vector_dfa a1)
      && Oracle.same_dfa (X.force (Sws_pl.explore s2)) (Afa.reverse_vector_dfa a2)
      && X.shortest_word (Sws_pl.explore s1) = X.shortest_word (Afa.explore a1)
      && X.distinguishing_word (Sws_pl.explore s1) all_words
         = X.distinguishing_word (Afa.explore a1) all_words
      && X.distinguishing_word (Sws_pl.explore s1) (Sws_pl.explore s2)
         = X.distinguishing_word (Afa.explore a1) (Afa.explore a2))

let suite =
  [
    Alcotest.test_case "roman epsilon regression" `Quick test_roman_epsilon;
    Alcotest.test_case "travel run" `Quick test_travel_run;
    Alcotest.test_case "travel nonrecursive" `Quick test_travel_not_recursive;
    Alcotest.test_case "parity recursive" `Quick test_recursive_flag;
    Alcotest.test_case "afa agrees (travel)" `Quick (afa_agrees "travel" travel_pl 2);
    Alcotest.test_case "afa agrees (parity)" `Quick (afa_agrees "parity" parity_pl 5);
    Alcotest.test_case "unfold agrees" `Slow test_unfold_agrees;
    Alcotest.test_case "roman dfa -> sws(pl,pl)" `Quick test_roman_pl;
    Alcotest.test_case "roman nfa -> sws(cq,ucq)" `Quick test_roman_cq;
    QCheck_alcotest.to_alcotest prop_roman_preserves_language;
    QCheck_alcotest.to_alcotest prop_chain_matches_afa;
    QCheck_alcotest.to_alcotest prop_afa_matches_runs;
    QCheck_alcotest.to_alcotest prop_explorer_matches_forced;
    QCheck_alcotest.to_alcotest prop_explore_matches_oracle;
    Alcotest.test_case "the vector DFA is explored lazily" `Quick
      test_explorer_is_lazy;
  ]
