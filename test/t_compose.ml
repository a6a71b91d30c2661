(* Tests for composition synthesis (Section 5): the language-level PL
   cases (MDT(∨) via regular rewriting, MDT_b via bounded boolean plans,
   k-prefix recognizability) and the CQ/UCQ case via query rewriting. *)

module R = Relational
module Term = R.Term
module Atom = R.Atom
module Relation = R.Relation
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Word_gen = Automata.Word_gen
open Sws

let check = Alcotest.(check bool)
let nfa s = Nfa.of_regex ~alphabet_size:2 (Regex.parse s)

(* ------------------------------------------------------------------ *)
(* k-prefix recognizability                                            *)
(* ------------------------------------------------------------------ *)

let test_k_prefix_bound () =
  (* membership decided by the first symbol: a(a|b)* *)
  let d1 = Dfa.of_nfa (nfa "a(a|b)*") in
  Alcotest.(check (option int)) "k = 1" (Some 1) (Compose.k_prefix_bound d1);
  (* decided by the first two symbols *)
  let d2 = Dfa.of_nfa (nfa "ab(a|b)*") in
  Alcotest.(check (option int)) "k = 2" (Some 2) (Compose.k_prefix_bound d2);
  (* everything: k = 0 *)
  let d0 = Dfa.of_nfa (nfa "(a|b)*") in
  Alcotest.(check (option int)) "k = 0" (Some 0) (Compose.k_prefix_bound d0);
  (* parity of b's: never prefix-recognizable *)
  let dp = Dfa.of_nfa (nfa "a*(ba*ba*)*") in
  Alcotest.(check (option int)) "no k" None (Compose.k_prefix_bound dp)

(* The linear bound against the definition (one search per state, then
   breadth-first levels) on DFAs of random regexes over {a, b}: star-free
   ones and ones ending in (a|b)* have a k, starred ones mostly not. *)
let gen_kprefix_regex =
  let module Re = Regex in
  let open QCheck.Gen in
  let rec gen ~stars n =
    if n = 0 then frequency [ (4, map Re.sym (0 -- 1)); (1, return Re.Eps); (1, return Re.Empty) ]
    else
      let sub = gen ~stars (n - 1) in
      frequency
        ([ (2, map2 (fun a b -> Re.Alt (a, b)) sub sub);
           (3, map2 (fun a b -> Re.Seq (a, b)) sub sub);
           (1, gen ~stars 0) ]
        @ if stars then [ (1, map Re.star sub) ] else [])
  in
  let sigma_star = Re.star (Re.Alt (Re.sym 0, Re.sym 1)) in
  sized_size (0 -- 4) (fun n ->
      oneof
        [
          gen ~stars:true n;
          gen ~stars:false n;
          map (fun r -> Re.Seq (r, sigma_star)) (gen ~stars:false n);
          map2
            (fun r w -> Re.Alt (r, Re.Seq (w, sigma_star)))
            (gen ~stars:false n) (gen ~stars:false n);
        ])

let prop_k_prefix_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"linear k-prefix bound = per-state oracle"
    (QCheck.make ~print:(Fmt.str "%a" Regex.pp) gen_kprefix_regex)
    (fun r ->
      let dfa = Dfa.of_nfa (Nfa.of_regex ~alphabet_size:2 r) in
      Compose.k_prefix_bound dfa = Oracle.k_prefix_bound dfa)

(* Nonrecursive PL services define k-prefix recognizable languages
   (Theorem 5.1(4)): depth bounds k. *)
let test_nr_service_prefix_recognizable () =
  let sws = Reductions.sws_of_sat (Proplogic.Prop.var "x") in
  let dfa = Dfa.of_nfa (Compose.pl_language_nfa sws) in
  match Compose.k_prefix_bound dfa with
  | Some k -> check "k bounded by depth+1" true (k <= 1)
  | None -> Alcotest.fail "nonrecursive service must be prefix-recognizable"

(* ------------------------------------------------------------------ *)
(* Minimal-prefix component languages                                  *)
(* ------------------------------------------------------------------ *)

let test_minimal_prefix () =
  let m = Compose.minimal_prefix_nfa (nfa "a|ab") in
  check "a kept" true (Nfa.accepts m [ 0 ]);
  check "ab dropped (a is a prefix)" false (Nfa.accepts m [ 0; 1 ]);
  let m2 = Compose.minimal_prefix_nfa (nfa "a*b") in
  check "b kept" true (Nfa.accepts m2 [ 1 ]);
  check "ab kept (no accepted prefix)" true (Nfa.accepts m2 [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* MDT(∨): synthesis via regular rewriting                              *)
(* ------------------------------------------------------------------ *)

let test_compose_or_exact () =
  (* goal (ab)* from component ab *)
  match Compose.compose_nfa_or ~goal:(nfa "(ab)*") ~components:[ ("c_ab", nfa "ab") ] () with
  | Some { Compose.exact = true; mediator; _ } ->
    check "mediator accepts V*" true
      (List.for_all (fun k -> Dfa.accepts mediator (List.init k (fun _ -> 0))) [ 0; 1; 2; 3 ])
  | _ -> Alcotest.fail "expected an exact composition"

let test_compose_or_two_components () =
  (* goal (ab|ba)*: needs both components *)
  match
    Compose.compose_nfa_or ~goal:(nfa "(ab|ba)*")
      ~components:[ ("c_ab", nfa "ab"); ("c_ba", nfa "ba") ]
      ()
  with
  | Some { Compose.exact = true; mediator; _ } ->
    check "mixed plan accepted" true (Dfa.accepts mediator [ 0; 1; 0 ])
  | _ -> Alcotest.fail "expected an exact composition"

let test_compose_or_impossible () =
  (* goal requires the letter b; only an a-component available *)
  match Compose.compose_nfa_or ~goal:(nfa "ab") ~components:[ ("c_a", nfa "a") ] () with
  | None -> ()
  | Some { Compose.exact; _ } -> check "not exact" false exact

(* The suffix family (a|b)*a(a|b)^n over views a and b: minimal-prefix
   views have no dead state for the expansion's subsets to collect, so
   at n = 2 the expansion determinizes to 17 states (13,938 with the
   minimal DFA's dead sink left in each view copy).  The views keep
   their languages, so the mediator is the same. *)
let test_minimal_prefix_dead_state () =
  let goal = nfa "(a|b)*a(a|b)(a|b)" in
  let views = List.map (fun s -> Compose.minimal_prefix_nfa (nfa s)) [ "a"; "b" ] in
  List.iter2
    (fun v s -> check ("view " ^ s) true (Automata.Lang.equivalent v (nfa s)))
    views [ "a"; "b" ];
  let m = Rewriting.Regex_rewrite.maximal_rewriting ~target:goal ~views in
  let e = Rewriting.Regex_rewrite.expansion ~views m in
  Alcotest.(check int) "expansion subsets" 17 (Dfa.num_states (Dfa.of_nfa e));
  match
    Compose.compose_nfa_or ~goal
      ~components:[ ("a", nfa "a"); ("b", nfa "b") ]
      ()
  with
  | Some { Compose.exact = true; mediator; _ } ->
    Alcotest.(check int) "mediator states" (Dfa.num_states m)
      (Dfa.num_states mediator)
  | _ -> Alcotest.fail "expected an exact composition"

(* PL goal service end-to-end: the sequential check "x in the first
   message, then y in the second" composed from two one-step checkers
   (the Figure 1(a)-style decomposition). *)
let test_compose_or_pl_goal () =
  let module Prop = Proplogic.Prop in
  let goal =
    Sws_pl.make ~input_vars:[ "x"; "y" ] ~start:"q0"
      ~rules:
        [
          ( "q0",
            { Sws_def.succs = [ ("q1", Prop.var "x") ]; synth = Prop.var "act1" } );
          ("q1", { Sws_def.succs = []; synth = Prop.var "y" });
        ]
  in
  let check_first var =
    Sws_pl.make ~input_vars:[ "x"; "y" ] ~start:"q0"
      ~rules:[ ("q0", { Sws_def.succs = []; synth = Prop.var var }) ]
  in
  match
    Compose.compose_pl_or ~goal
      ~components:[ ("check_x", check_first "x"); ("check_y", check_first "y") ]
      ()
  with
  | Some { Compose.exact = true; mediator; _ } ->
    (* the mediator must be check_x then check_y: word [0; 1] *)
    check "x;y plan" true (Dfa.accepts mediator [ 0; 1 ]);
    check "not y;x" false (Dfa.accepts mediator [ 1; 0 ])
  | Some { Compose.exact = false; _ } -> Alcotest.fail "expected exactness"
  | None -> Alcotest.fail "expected a composition"

(* ------------------------------------------------------------------ *)
(* MDT_b(PL): bounded boolean plans                                     *)
(* ------------------------------------------------------------------ *)

let test_compose_mdtb () =
  (* goal = ab followed by ba *)
  (match
     Compose.compose_mdtb ~goal:(nfa "abba")
       ~components:[ ("c_ab", nfa "ab"); ("c_ba", nfa "ba") ]
       ~budget:(Sws.Engine.Budget.of_depth 2) ()
   with
  | Compose.Found plan ->
    check "chain found" true
      (String.length (Fmt.str "%a" Compose.pp_plan plan) > 0)
  | Compose.No_mediator_within_bound _ -> Alcotest.fail "expected a chain plan");
  (* goal needing intersection: words in both a(a|b) and (a|b)a = aa *)
  (match
     Compose.compose_mdtb ~goal:(nfa "aa")
       ~components:[ ("c1", nfa "a(a|b)"); ("c2", nfa "(a|b)a") ]
       ~budget:(Sws.Engine.Budget.of_depth 1) ()
   with
  | Compose.Found _ -> ()
  | Compose.No_mediator_within_bound _ -> Alcotest.fail "expected a boolean plan");
  (* impossible within the bound *)
  match
    Compose.compose_mdtb ~goal:(nfa "ababab")
      ~components:[ ("c_ab", nfa "ab") ]
      ~budget:(Sws.Engine.Budget.of_depth 2) ()
  with
  | Compose.No_mediator_within_bound e ->
    check "plan space ran dry" true (e.Sws.Engine.limit = `Candidates)
  | Compose.Found _ -> Alcotest.fail "three invocations cannot fit in bound 2"

(* With the memo off (a stored answer satisfies any deadline), a deadline
   already spent is a [Deadline] trip, never a verdict, on the boolean
   instance above, which an undeadlined run solves. *)
let test_mdtb_deadline_passed () =
  let goal = nfa "aa" and components = [ ("c1", nfa "a(a|b)"); ("c2", nfa "(a|b)a") ] in
  let run budget = Compose.compose_mdtb ~goal ~components ~budget () in
  Engine.set_caching false;
  Fun.protect ~finally:(fun () -> Engine.set_caching true) @@ fun () ->
  (match run (Engine.Budget.make ~max_depth:1 ~deadline_s:0. ()) with
  | Compose.No_mediator_within_bound e ->
    check "limit Deadline" true (e.Engine.limit = `Deadline)
  | Compose.Found _ -> Alcotest.fail "a spent deadline found a plan");
  match run (Engine.Budget.of_depth 1) with
  | Compose.Found _ -> ()
  | Compose.No_mediator_within_bound _ -> Alcotest.fail "expected a boolean plan"

(* A deadline that runs out inside the exact check stops the check, not
   just the plan loop.  The goal is a*b spelled as the union of a-cycles of
   lengths 2, 3, 5, 7, 11 and 13, each leaving on b: after a^n the goal's
   state set holds one state per cycle, so the sets on the 30,030 words
   a^0 .. a^30029 are pairwise incomparable and the antichain check of the
   first plan (the view a*b itself, which is the mediator) keeps them all.
   Unhooked, that check runs for seconds and finds the plan; the deadline's
   hook stops it after the plan was ticked, so the trip counts one node. *)
let test_mdtb_deadline_in_check () =
  let primes = [ 2; 3; 5; 7; 11; 13 ] in
  let num_states = 1 + List.fold_left ( + ) 0 primes in
  let final = num_states - 1 in
  let bases =
    List.rev
      (snd (List.fold_left (fun (b, acc) p -> (b + p, b :: acc)) (0, []) primes))
  in
  let edges =
    List.concat
      (List.map2
         (fun p base ->
           List.concat
             (List.init p (fun j ->
                  [
                    (base + j, 0, base + ((j + 1) mod p));
                    (base + j, 1, final);
                  ])))
         primes bases)
  in
  let goal =
    Nfa.create ~num_states ~alphabet_size:2 ~starts:bases ~finals:[ final ]
      ~edges ~eps_edges:[]
  in
  Engine.set_caching false;
  Fun.protect ~finally:(fun () -> Engine.set_caching true) @@ fun () ->
  match
    Compose.compose_mdtb ~goal
      ~components:[ ("v", nfa "a*b") ]
      ~budget:(Engine.Budget.make ~max_depth:1 ~deadline_s:0.2 ())
      ()
  with
  | Compose.No_mediator_within_bound e ->
    check "limit Deadline" true (e.Engine.limit = `Deadline);
    Alcotest.(check int) "first plan ticked" 1 e.Engine.nodes_expanded
  | Compose.Found _ -> Alcotest.fail "the deadline did not stop the check"

(* [compose_mdtb]'s candidate plans, in its order: chains of length <=
   [bound], then each boolean combination of two chains. *)
let mdtb_candidates ~bound names =
  let rec of_length l =
    if l = 0 then [ [] ]
    else List.concat_map (fun n -> List.map (fun c -> n :: c) (of_length (l - 1))) names
  in
  let base =
    List.concat_map (fun l -> of_length (l + 1)) (List.init bound Fun.id)
    |> List.map (fun c -> Compose.Chain (List.map (fun n -> Compose.Invoke n) c))
  in
  base
  @ List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> Compose.[ Union (a, b); Inter (a, b); Minus (a, b) ])
          base)
      base

let mdtb_env components =
  List.map (fun (n, c) -> (n, Compose.minimal_prefix_nfa c)) components

(* The memo-free reference for [compose_mdtb]'s lazy arm: the same
   candidates, each plan's language rebuilt from scratch by
   [Compose.plan_language_nfa] and checked in full (no memo, no test-word
   refutation), and the search's accounting restated — the node budget
   checked before each plan. *)
let mdtb_reference ~bound ~max_nodes ~goal ~components =
  let env = mdtb_env components in
  let alphabet_size = Nfa.alphabet_size goal in
  let matches plan =
    Automata.Lang.equivalent
      (Compose.plan_language_nfa ~env ~alphabet_size plan)
      goal
  in
  let rec go checked = function
    | [] -> `Exhausted (`Candidates, checked)
    | _ when checked >= max_nodes -> `Exhausted (`Nodes, checked)
    | plan :: rest -> if matches plan then `Found plan else go (checked + 1) rest
  in
  go 0 (mdtb_candidates ~bound (List.map fst components))

(* Instances over 2- and 3-letter alphabets with 1 to 3 components, so
   bound 2 gives 14, 114 or 444 candidates: c chains, then a (union,
   intersection, difference) triple per ordered pair of chains.  Goals
   are regexes, or the language of one candidate plan itself, so every
   plan shape (chain, union, intersection, difference) gets found; node
   budgets range over the whole space, so they trip mid-search too. *)
let mdtb_instance =
  QCheck.Gen.(
    let* alphabet_size = oneofl [ 2; 3 ] in
    let pool =
      [ "a"; "b"; "ab"; "ba"; "a|b"; "aa"; "b*"; "a(a|b)"; "(a|b)a"; "ab|ba"; "aa|b" ]
      @ if alphabet_size = 3 then [ "c"; "ca"; "a|c"; "c*"; "a(b|c)"; "(a|c)b"; "ab|ca"; "cc|b" ]
        else []
    in
    let* k = 1 -- 3 in
    let* cs = list_repeat k (oneofl pool) in
    let chains = k + (k * k) in
    let candidates = chains + (3 * chains * chains) in
    let* goal =
      oneof
        [
          map (fun r -> `Regex r)
            (oneofl
               ([ "abab"; "b"; "(ab)*" ]
               @ (match cs with
                 | [ c1 ] -> [ c1 ^ c1; c1 ^ c1 ^ c1 ]
                 | c1 :: c2 :: _ -> [ c1 ^ c2; c2 ^ c1 ^ c1; "(" ^ c1 ^ ")|(" ^ c2 ^ ")" ]
                 | [] -> [])));
          map (fun i -> `Plan i) (0 -- (candidates - 1));
          (* a difference: the shape most often equal to no earlier plan *)
          map (fun j -> `Plan (chains + (3 * j) + 2)) (0 -- ((chains * chains) - 1));
        ]
    in
    let* max_nodes = oneof [ 1 -- (candidates + 16); return max_int ] in
    return
      (alphabet_size, goal, List.mapi (fun i c -> (Fmt.str "c%d" (i + 1), c)) cs, max_nodes))

let prop_mdtb_memo_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"memoized compose_mdtb matches the memo-free reference (jobs 1, 4)"
    (QCheck.make
       ~print:(fun (k, g, cs, m) ->
         Fmt.str "alphabet %d, goal %s, components %s, max_nodes %d" k
           (match g with `Regex r -> r | `Plan i -> Fmt.str "plan #%d" i)
           (String.concat "," (List.map snd cs))
           m)
       mdtb_instance)
    (fun (alphabet_size, goal, components, max_nodes) ->
      let nfa r = Nfa.of_regex ~alphabet_size (Regex.parse r) in
      let components = List.map (fun (n, c) -> (n, nfa c)) components in
      let goal =
        match goal with
        | `Regex r -> nfa r
        | `Plan i ->
          Compose.plan_language_nfa ~env:(mdtb_env components) ~alphabet_size
            (List.nth (mdtb_candidates ~bound:2 (List.map fst components)) i)
      in
      let budget =
        if max_nodes = max_int then Engine.Budget.of_depth 2
        else Engine.Budget.make ~max_depth:2 ~max_nodes ()
      in
      let expected = mdtb_reference ~bound:2 ~max_nodes ~goal ~components in
      let agrees jobs =
        Par.Pool.set_jobs (Some jobs);
        Engine.set_caching false;
        let got =
          Fun.protect
            ~finally:(fun () ->
              Engine.set_caching true;
              Par.Pool.set_jobs None)
            (fun () -> Compose.compose_mdtb ~budget ~goal ~components ())
        in
        match (expected, got) with
        | `Found p, Compose.Found p' -> p = p'
        | `Exhausted (limit, checked), Compose.No_mediator_within_bound e ->
          e.Engine.limit = limit && e.Engine.nodes_expanded = checked
        | _ -> false
      in
      agrees 1 && agrees 4)

(* The test-word refutation's soundness: a plan's verdict on a word,
   combined from its chains' verdicts, is the plan language's. *)
let prop_plan_accepts_matches_language =
  QCheck.Test.make ~count:200
    ~name:"plan_accepts = accepts of plan_language_nfa on random words"
    (QCheck.make
       ~print:(fun (i, cs, w) ->
         Fmt.str "plan #%d, components %s, word %a" i (String.concat "," cs)
           Word_gen.pp_word w)
       QCheck.Gen.(
         let pool = [ "a"; "ab"; "ba"; "a|c"; "c*"; "a(b|c)"; "(a|c)b"; "ab|ca"; "b*a" ] in
         let* c1 = oneofl pool and* c2 = oneofl pool in
         let* i = 0 -- 113 in
         let* w = list_size (0 -- 6) (0 -- 2) in
         return (i, [ c1; c2 ], w)))
    (fun (i, cs, w) ->
      let env =
        mdtb_env
          (List.mapi
             (fun i c ->
               (Fmt.str "c%d" (i + 1), Nfa.of_regex ~alphabet_size:3 (Regex.parse c)))
             cs)
      in
      let lang = Compose.plan_language_nfa ~env ~alphabet_size:3 in
      let plan = List.nth (mdtb_candidates ~bound:2 [ "c1"; "c2" ]) i in
      Compose.plan_accepts ~chain_accepts:(fun c -> Nfa.accepts (lang c) w) plan
      = Nfa.accepts (lang plan) w)

(* The refutation fires: on a 114-candidate instance with no mediator,
   the search explores under a quarter of the antichain pairs that
   checking every plan in full explores (the chain memo alone saves
   about 2 %), and still reports every plan as checked. *)
let test_mdtb_refutation_fires () =
  let goal = nfa "ababab" and components = [ ("c1", nfa "ab"); ("c2", nfa "ba") ] in
  let explored f =
    let before = Automata.Lang.states_explored_total () in
    let r = f () in
    (r, Automata.Lang.states_explored_total () - before)
  in
  let reference, reference_pairs =
    explored (fun () ->
        mdtb_reference ~bound:2 ~max_nodes:max_int ~goal ~components)
  in
  let got, pairs =
    Par.Pool.set_jobs (Some 1);
    Engine.set_caching false;
    Fun.protect
      ~finally:(fun () ->
        Engine.set_caching true;
        Par.Pool.set_jobs None)
      (fun () ->
        explored (fun () ->
            Compose.compose_mdtb ~budget:(Engine.Budget.of_depth 2) ~goal
              ~components ()))
  in
  (match (reference, got) with
  | `Exhausted (`Candidates, 114), Compose.No_mediator_within_bound e ->
    Alcotest.(check int) "plans_checked" 114 e.Engine.nodes_expanded
  | _ -> Alcotest.fail "expected the plan space to run dry after 114 plans");
  if not (4 * pairs < reference_pairs) then
    Alcotest.failf "refuted search explored %d pairs, the full checks %d" pairs
      reference_pairs

(* ------------------------------------------------------------------ *)
(* CQ/UCQ composition via view rewriting                                *)
(* ------------------------------------------------------------------ *)

let v = Term.var
let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body ()

let db_schema = R.Schema.of_list [ ("r", 2); ("s", 2) ]

let test_compose_cq () =
  let goal =
    R.Ucq.of_cq
      (cq [ v "a"; v "c" ] [ Atom.make "r" [ v "a"; v "b" ]; Atom.make "s" [ v "b"; v "c" ] ])
  in
  let components =
    [
      ("vr", cq [ v "x"; v "y" ] [ Atom.make "r" [ v "x"; v "y" ] ]);
      ("vs", cq [ v "x"; v "y" ] [ Atom.make "s" [ v "x"; v "y" ] ]);
    ]
  in
  match Compose.compose_cq ~db_schema ~components goal with
  | Compose.Cq_composed { rewriting; mediator_ops } ->
    check "rewriting expands to goal" true
      (R.Ucq.equivalent
         (Rewriting.Expand.expand_ucq
            (List.map (fun (n, q) -> Rewriting.View.make n q) components)
            rewriting)
         goal);
    (* the reified mediators jointly agree with a goal query service *)
    let goal_svc = Compose.query_service ~db_schema (List.hd (R.Ucq.disjuncts goal)) in
    List.iter
      (fun m ->
        match Mediator.equiv_check ~budget:(Sws.Engine.Budget.of_nodes 100)
           ~goal:goal_svc m with
        | Mediator.Agree_on_samples _ -> ()
        | Mediator.Differ _ -> Alcotest.fail "reified mediator differs from goal")
      mediator_ops
  | _ -> Alcotest.fail "expected a composition"

let test_compose_cq_impossible () =
  (* the goal projects r's first column; only s is available *)
  let goal = R.Ucq.of_cq (cq [ v "x" ] [ Atom.make "r" [ v "x"; v "y" ] ]) in
  let components = [ ("vs", cq [ v "x"; v "y" ] [ Atom.make "s" [ v "x"; v "y" ] ]) ] in
  match Compose.compose_cq ~db_schema ~components goal with
  | Compose.Cq_no_mediator -> ()
  | _ -> Alcotest.fail "no mediator can exist"

(* ------------------------------------------------------------------ *)
(* Bounded search for the undecidable rows                              *)
(* ------------------------------------------------------------------ *)

let test_bounded_search () =
  let svc_r =
    Compose.query_service ~db_schema (cq [ v "x"; v "y" ] [ Atom.make "r" [ v "x"; v "y" ] ])
  in
  let goal = svc_r in
  match
    Compose.compose_bounded_search ~db_schema ~goal
      ~components:[ ("vr", svc_r) ] ()
  with
  | Compose.Candidate _ -> ()
  | Compose.None_within_bound _ -> Alcotest.fail "identity composition exists"

(* Soundness property: every plan of a synthesized MDT(∨) mediator expands
   inside the goal, and when the result is exact the expansion covers it. *)
let prop_compose_or_sound =
  let cases =
    [
      ("(ab)*", [ "ab" ]);
      ("(ab|ba)*", [ "ab"; "ba" ]);
      ("a(a|b)*", [ "a"; "b" ]);
      ("abab", [ "ab" ]);
      ("ab|ba", [ "ab" ]);
    ]
  in
  QCheck.Test.make ~count:20 ~name:"MDT(or) synthesis is sound and tight"
    (QCheck.make (QCheck.Gen.oneofl cases))
    (fun (goal_s, views_s) ->
      let goal = nfa goal_s in
      let components = List.mapi (fun i s -> (Printf.sprintf "c%d" i, nfa s)) views_s in
      match Compose.compose_nfa_or ~goal ~components () with
      | None -> true
      | Some { Compose.mediator; exact; _ } ->
        let views = List.map (fun (_, n) -> Compose.minimal_prefix_nfa n) components in
        let e = Rewriting.Regex_rewrite.expansion ~views mediator in
        let sound = Oracle.Eager.nfa_contains goal e in
        let tight = (not exact) || Oracle.Eager.nfa_contains e goal in
        sound && tight)

(* Witness validity: non-emptiness witnesses of random tree-shaped CQ/UCQ
   services really drive the service to the reported output tuple. *)
let prop_cq_witness_valid =
  let v = R.Term.var in
  let cqm ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body () in
  QCheck.Test.make ~count:25 ~name:"cq non-emptiness witnesses replay"
    (QCheck.make (QCheck.Gen.int_bound 100000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let depth = 1 + Random.State.int rng 3 in
      let phi = Sws_data.Q_cq (cqm [ v "x" ] [ Atom.make "in" [ v "x" ] ]) in
      let leaf =
        Sws_data.Q_cq
          (cqm [ v "x"; v "y" ]
             [ Atom.make "msg" [ v "x" ]; Atom.make "r" [ v "x"; v "y" ] ])
      in
      let union2 =
        Sws_data.Q_ucq
          (R.Ucq.make
             [
               cqm [ v "x"; v "y" ] [ Atom.make "act1" [ v "x"; v "y" ] ];
               cqm [ v "x"; v "y" ] [ Atom.make "act2" [ v "x"; v "y" ] ];
             ])
      in
      let rec rules level =
        let name = Printf.sprintf "n%d" level in
        if level = depth then [ (name, { Sws_def.succs = []; synth = leaf }) ]
        else
          let child = Printf.sprintf "n%d" (level + 1) in
          (name, { Sws_def.succs = [ (child, phi); (child, phi) ]; synth = union2 })
          :: rules (level + 1)
      in
      let svc =
        Sws_data.make ~db_schema:(R.Schema.of_list [ ("r", 2) ]) ~in_arity:1
          ~out_arity:2 ~start:"n0" ~rules:(rules 0)
      in
      match Decision.cq_non_emptiness svc with
      | Decision.Yes (db, inputs, goal) ->
        Relation.mem goal (Sws_data.run svc db inputs)
      | _ -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_compose_or_sound;
    QCheck_alcotest.to_alcotest prop_cq_witness_valid;
    Alcotest.test_case "k-prefix bound" `Quick test_k_prefix_bound;
    Alcotest.test_case "nr service prefix-recognizable" `Quick test_nr_service_prefix_recognizable;
    Alcotest.test_case "minimal prefix" `Quick test_minimal_prefix;
    Alcotest.test_case "compose or exact" `Quick test_compose_or_exact;
    Alcotest.test_case "compose or two components" `Quick test_compose_or_two_components;
    Alcotest.test_case "compose or impossible" `Quick test_compose_or_impossible;
    Alcotest.test_case "compose or pl goal" `Slow test_compose_or_pl_goal;
    Alcotest.test_case "minimal-prefix views drop the dead state" `Quick
      test_minimal_prefix_dead_state;
    Alcotest.test_case "compose mdtb" `Quick test_compose_mdtb;
    Alcotest.test_case "mdtb with a spent deadline trips Deadline" `Quick
      test_mdtb_deadline_passed;
    Alcotest.test_case "mdtb deadline stops the exact check" `Quick
      test_mdtb_deadline_in_check;
    Alcotest.test_case "compose cq" `Quick test_compose_cq;
    Alcotest.test_case "compose cq impossible" `Quick test_compose_cq_impossible;
    Alcotest.test_case "bounded search" `Quick test_bounded_search;
    QCheck_alcotest.to_alcotest prop_mdtb_memo_matches_reference;
    QCheck_alcotest.to_alcotest prop_plan_accepts_matches_language;
    Alcotest.test_case "mdtb test words refute before products" `Quick
      test_mdtb_refutation_fires;
    QCheck_alcotest.to_alcotest prop_k_prefix_matches_oracle;
  ]
