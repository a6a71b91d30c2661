(* Agreement suites for the interned representation core (lib/repr) and the
   layers rebuilt on top of it.  Each property checks the packed
   implementation against a straightforward structural model built in the
   test suite: Bitset against [Set.Make (Int)], Relation against sorted
   tuple lists, Cq.eval against the nested-loop oracle, and the bit-set
   automata against a set-based epsilon-closure simulation. *)

module R = Relational
module Bs = Repr.Bitset
module Iset = Set.Make (Int)

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Bitset vs Set.Make (Int)                                            *)
(* ------------------------------------------------------------------ *)

let gen_elems = QCheck.Gen.(list_size (0 -- 20) (0 -- 130))

let prop_bitset_algebra =
  QCheck.Test.make ~count:200 ~name:"bitset ops agree with Set.Make(Int)"
    (QCheck.make QCheck.Gen.(pair gen_elems gen_elems))
    (fun (xs, ys) ->
      let b1 = Bs.of_list xs and b2 = Bs.of_list ys in
      let s1 = Iset.of_list xs and s2 = Iset.of_list ys in
      let agree b s = Bs.elements b = Iset.elements s in
      agree (Bs.union b1 b2) (Iset.union s1 s2)
      && agree (Bs.inter b1 b2) (Iset.inter s1 s2)
      && agree (Bs.diff b1 b2) (Iset.diff s1 s2)
      && Bs.subset b1 b2 = Iset.subset s1 s2
      && Bs.equal b1 b2 = Iset.equal s1 s2
      && Bs.intersects b1 b2 = not (Iset.is_empty (Iset.inter s1 s2))
      && Bs.cardinal b1 = Iset.cardinal s1
      && Bs.is_empty b1 = Iset.is_empty s1
      && List.for_all (fun x -> Bs.mem x b1 = Iset.mem x s1) (0 :: 63 :: 64 :: xs)
      && Bs.fold (fun x acc -> x + acc) b1 0 = Iset.fold (fun x acc -> x + acc) s1 0
      && Bs.for_all (fun x -> x mod 2 = 0) b1 = Iset.for_all (fun x -> x mod 2 = 0) s1
      && Bs.exists (fun x -> x > 100) b1 = Iset.exists (fun x -> x > 100) s1)

let prop_bitset_add_remove =
  QCheck.Test.make ~count:200 ~name:"bitset add/remove agree with Set.Make(Int)"
    (QCheck.make QCheck.Gen.(pair gen_elems (0 -- 130)))
    (fun (xs, x) ->
      let b = Bs.of_list xs and s = Iset.of_list xs in
      Bs.elements (Bs.add x b) = Iset.elements (Iset.add x s)
      && Bs.elements (Bs.remove x b) = Iset.elements (Iset.remove x s))

let prop_bitset_shift =
  QCheck.Test.make ~count:200 ~name:"bitset shift is elementwise + k"
    (QCheck.make QCheck.Gen.(pair gen_elems (0 -- 140)))
    (fun (xs, k) ->
      let b = Bs.of_list xs in
      Bs.elements (Bs.shift k b)
      = (Iset.elements (Iset.of_list xs) |> List.map (fun x -> x + k)))

let prop_bitset_hash_equal =
  QCheck.Test.make ~count:200
    ~name:"bitset equal values hash alike, whatever the build order"
    (QCheck.make gen_elems)
    (fun xs ->
      (* same set built two ways: of_list vs folded adds over a shuffle
         that also passes through a too-large element and removes it *)
      let b1 = Bs.of_list xs in
      let b2 =
        List.fold_left (fun b x -> Bs.add x b) (Bs.add 300 Bs.empty) (List.rev xs)
        |> Bs.remove 300
      in
      Bs.equal b1 b2 && Bs.hash b1 = Bs.hash b2 && Bs.compare b1 b2 = 0)

let test_bitset_edges () =
  check "empty is empty" true (Bs.is_empty Bs.empty);
  check "mem on empty" false (Bs.mem 0 Bs.empty);
  check "negative mem is false" false (Bs.mem (-1) (Bs.of_list [ 0; 1 ]));
  check "singleton" true (Bs.elements (Bs.singleton 63) = [ 63 ]);
  check "word boundary 63/64" true
    (Bs.elements (Bs.of_list [ 63; 64 ]) = [ 63; 64 ]);
  check "remove last element normalizes" true
    (Bs.equal Bs.empty (Bs.remove 64 (Bs.singleton 64)));
  check "shift 0 is identity" true
    (let b = Bs.of_list [ 0; 5; 64 ] in
     Bs.equal b (Bs.shift 0 b));
  check "choose_opt empty" true (Bs.choose_opt Bs.empty = None);
  check "choose_opt nonempty" true (Bs.choose_opt (Bs.of_list [ 7; 3 ]) = Some 3)

(* Elements at the word boundaries: with [Sys.int_size] = 63, bit 62 is
   the sign bit of word 0 and 63 / 126 open words 1 and 2. *)
let gen_boundary_elems =
  QCheck.Gen.(
    list_size (0 -- 12)
      (oneof [ oneofl [ 0; 61; 62; 63; 125; 126; 127; 188; 189 ]; 0 -- 200 ]))

let prop_bitset_accumulator =
  QCheck.Test.make ~count:300
    ~name:"bitset accumulator and bit index agree with Set.Make(Int)"
    (QCheck.make
       QCheck.Gen.(
         triple (list_size (0 -- 4) gen_boundary_elems) gen_boundary_elems
           (oneofl [ 0; 62; 200 ])))
    (fun (sets, bits, capacity) ->
      let acc = Bs.acc_create ~capacity () in
      List.iter (fun xs -> Bs.acc_union acc (Bs.of_list xs)) sets;
      List.iter (Bs.acc_add acc) bits;
      let got = Bs.acc_finish acc in
      let model =
        List.fold_left
          (fun s xs -> Iset.union s (Iset.of_list xs))
          (Iset.of_list bits) sets
      in
      let built = Bs.of_list (Iset.elements model) in
      (* a finished accumulator starts over empty *)
      Bs.acc_add acc 62;
      let reused = Bs.elements (Bs.acc_finish acc) = [ 62 ] in
      (* [elements], [fold] and [choose_opt] read bits back through the
         constant-time bit index *)
      Bs.elements got = Iset.elements model
      && Bs.fold (fun x l -> x :: l) got [] = List.rev (Iset.elements model)
      && Bs.choose_opt got = Iset.min_elt_opt model
      && Bs.equal got built
      && Bs.compare got built = 0
      && Bs.hash got = Bs.hash built
      && reused
      && Bs.is_empty (Bs.acc_finish acc))

(* ------------------------------------------------------------------ *)
(* Symtab and Ituple                                                   *)
(* ------------------------------------------------------------------ *)

module Stab = Repr.Symtab.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

let prop_symtab_roundtrip =
  QCheck.Test.make ~count:100 ~name:"symtab intern/extern round-trips"
    (QCheck.make QCheck.Gen.(list_size (0 -- 30) (string_size ~gen:(char_range 'a' 'f') (1 -- 4))))
    (fun words ->
      let tab = Stab.create () in
      let ids = List.map (Stab.intern tab) words in
      List.for_all2 (fun w id -> String.equal (Stab.extern tab id) w) words ids
      && Stab.size tab = List.length (List.sort_uniq String.compare words)
      && (* interning again is stable *)
      List.for_all2 (fun w id -> Stab.intern tab w = id) words ids)

let test_value_ids () =
  let vs =
    [ R.Value.int 0; R.Value.int 42; R.Value.str ""; R.Value.str "abc" ]
  in
  List.iter
    (fun v ->
      check "value id round-trips" true
        (R.Value.equal v (R.Value.of_id (R.Value.id v))))
    vs;
  (* frozen values live in the reserved negative id range, off the table *)
  let s = R.Value.Fresh.supply () in
  let f0 = R.Value.Fresh.next s and f1 = R.Value.Fresh.next s in
  check "frozen ids negative" true (R.Value.id f0 < 0 && R.Value.id f1 < 0);
  check "frozen ids distinct" true (R.Value.id f0 <> R.Value.id f1);
  check "frozen id round-trips" true
    (R.Value.equal f1 (R.Value.of_id (R.Value.id f1)));
  check "id equality is value equality" true
    (R.Value.id (R.Value.str "x") = R.Value.id (R.Value.str "x")
    && R.Value.id (R.Value.str "x") <> R.Value.id (R.Value.str "y"))

let test_ituple_basics () =
  let t = Repr.Ituple.of_list [ 3; 1; 2 ] in
  check "arity" true (Repr.Ituple.arity t = 3);
  check "get" true (Repr.Ituple.get t 0 = 3 && Repr.Ituple.get t 2 = 2);
  check "to_list" true (Repr.Ituple.to_list t = [ 3; 1; 2 ]);
  check "equal reflexive" true (Repr.Ituple.equal t (Repr.Ituple.of_list [ 3; 1; 2 ]));
  check "equal distinguishes" false (Repr.Ituple.equal t (Repr.Ituple.of_list [ 3; 1; 3 ]));
  check "hash consistent" true
    (Repr.Ituple.hash t = Repr.Ituple.hash (Repr.Ituple.of_list [ 3; 1; 2 ]));
  check "append" true
    (Repr.Ituple.to_list (Repr.Ituple.append t (Repr.Ituple.of_list [ 9 ]))
    = [ 3; 1; 2; 9 ]);
  check "project" true
    (Repr.Ituple.to_list (Repr.Ituple.project [| 2; 0 |] t) = [ 2; 3 ]);
  check "compare total" true
    (Repr.Ituple.compare t t = 0
    && Repr.Ituple.compare (Repr.Ituple.of_list [ 1 ]) t <> 0)

(* ------------------------------------------------------------------ *)
(* Relation vs a sorted-tuple-list model                               *)
(* ------------------------------------------------------------------ *)

let gen_value = QCheck.Gen.(oneof [ map R.Value.int (0 -- 4); map R.Value.str (oneofl [ "a"; "b"; "c" ]) ])

let gen_tuple = QCheck.Gen.(map R.Tuple.of_list (list_size (return 2) gen_value))

let gen_tuples = QCheck.Gen.(list_size (0 -- 12) gen_tuple)

let model_of ts = List.sort_uniq R.Tuple.compare ts

let prop_relation_model =
  QCheck.Test.make ~count:200 ~name:"relation ops agree with a tuple-list model"
    (QCheck.make QCheck.Gen.(pair gen_tuples gen_tuples))
    (fun (ts1, ts2) ->
      let r1 = R.Relation.of_list 2 ts1 and r2 = R.Relation.of_list 2 ts2 in
      let m1 = model_of ts1 and m2 = model_of ts2 in
      let agree r m = R.Relation.to_list r = m in
      agree r1 m1
      && R.Relation.cardinal r1 = List.length m1
      && agree (R.Relation.union r1 r2)
           (model_of (m1 @ m2))
      && agree (R.Relation.inter r1 r2)
           (List.filter (fun t -> List.exists (R.Tuple.equal t) m2) m1)
      && agree (R.Relation.diff r1 r2)
           (List.filter (fun t -> not (List.exists (R.Tuple.equal t) m2)) m1)
      && agree (R.Relation.project [ 1; 0 ] r1)
           (model_of (List.map (fun t -> R.Tuple.project [ 1; 0 ] t) m1))
      && List.for_all (fun t -> R.Relation.mem t r1) m1
      && R.Relation.equal r1 r2 = (m1 = m2)
      && R.Relation.subset r1 r2
         = List.for_all (fun t -> List.exists (R.Tuple.equal t) m2) m1)

let prop_relation_add_remove =
  QCheck.Test.make ~count:200 ~name:"relation add/remove agree with the model"
    (QCheck.make QCheck.Gen.(pair gen_tuples gen_tuple))
    (fun (ts, t) ->
      let r = R.Relation.of_list 2 ts in
      R.Relation.to_list (R.Relation.add t r) = model_of (t :: ts)
      && R.Relation.to_list (R.Relation.remove t r)
         = List.filter (fun t' -> not (R.Tuple.equal t t')) (model_of ts))

(* ------------------------------------------------------------------ *)
(* Cq.eval vs the nested-loop value-level join                         *)
(* ------------------------------------------------------------------ *)

let gen_edge_db =
  QCheck.Gen.(
    map
      (fun pairs ->
        List.fold_left
          (fun db (a, b) ->
            R.Database.add_tuple "e"
              (R.Tuple.of_list [ R.Value.int a; R.Value.int b ])
              db)
          (R.Database.empty (R.Schema.of_list [ ("e", 2) ]))
          pairs)
      (list_size (0 -- 10) (pair (0 -- 4) (0 -- 4))))

let cq_pool =
  let v = R.Term.var in
  [
    (* 2-chain *)
    R.Cq.make ~head:[ v "x"; v "z" ]
      ~body:[ R.Atom.make "e" [ v "x"; v "y" ]; R.Atom.make "e" [ v "y"; v "z" ] ]
      ();
    (* triangle through a constant *)
    R.Cq.make ~head:[ v "x" ]
      ~body:
        [
          R.Atom.make "e" [ v "x"; v "y" ];
          R.Atom.make "e" [ v "y"; R.Term.const (R.Value.int 0) ];
        ]
      ();
    (* self-join with repeated variable *)
    R.Cq.make ~head:[ v "x" ] ~body:[ R.Atom.make "e" [ v "x"; v "x" ] ] ();
    (* 2-chain with an inequality *)
    R.Cq.make
      ~neqs:[ (v "x", v "z") ]
      ~head:[ v "x"; v "z" ]
      ~body:[ R.Atom.make "e" [ v "x"; v "y" ]; R.Atom.make "e" [ v "y"; v "z" ] ]
      ();
  ]

let prop_cq_matches_oracle =
  QCheck.Test.make ~count:100
    ~name:"cq eval: indexed join = nested-loop oracle"
    (QCheck.make QCheck.Gen.(pair (oneofl cq_pool) gen_edge_db))
    (fun (q, db) -> R.Relation.equal (R.Cq.eval q db) (Oracle.cq_eval q db))

(* ------------------------------------------------------------------ *)
(* Bit-set NFA/DFA vs a Set.Make (Int) simulation                      *)
(* ------------------------------------------------------------------ *)

(* Epsilon-closure word simulation over the Nfa accessors, carrying state
   sets as [Set.Make (Int)] — the seed representation restated. *)
let set_based_accepts n word =
  let module A = Automata.Nfa in
  let closure set =
    let rec go frontier seen =
      if Iset.is_empty frontier then seen
      else
        let next =
          Iset.fold
            (fun q acc ->
              A.Iset.fold (fun q' acc -> Iset.add q' acc)
                (A.eps_successors n q) acc)
            frontier Iset.empty
        in
        let fresh = Iset.diff next seen in
        go fresh (Iset.union seen fresh)
    in
    go set set
  in
  let step set a =
    closure
      (Iset.fold
         (fun q acc ->
           A.Iset.fold (fun q' acc -> Iset.add q' acc) (A.successors n q a) acc)
         set Iset.empty)
  in
  let start = closure (Iset.of_list (A.starts n)) in
  let final = List.fold_left (fun s w -> step s w) start word in
  List.exists (fun q -> Iset.mem q final) (A.finals n)

let regex_pool =
  [ "(ab)*c"; "a|bc"; "(a|b)*"; "ab+c?"; "((a|b)c)*"; "a*b*c*"; "(a|b)*a" ]

let words_up_to k alphabet =
  let rec go k =
    if k = 0 then [ [] ]
    else
      let shorter = go (k - 1) in
      shorter
      @ List.concat_map
          (fun w -> List.map (fun a -> a :: w) alphabet)
          (List.filter (fun w -> List.length w = k - 1) shorter)
  in
  go k

let prop_nfa_bitset_agrees =
  QCheck.Test.make ~count:20
    ~name:"bitset nfa/dfa agree with a set-based simulation"
    (QCheck.make (QCheck.Gen.oneofl regex_pool))
    (fun s ->
      let module A = Automata.Nfa in
      let n = A.of_regex ~alphabet_size:3 (Automata.Regex.parse s) in
      let d = Automata.Dfa.of_nfa n in
      List.for_all
        (fun w ->
          let expected = set_based_accepts n w in
          A.accepts n w = expected && Automata.Dfa.accepts d w = expected)
        (words_up_to 5 [ 0; 1; 2 ]))

(* Random NFAs over two symbols with epsilon edges, always including an
   epsilon cycle through state 0; up to 70 states, so state sets cross
   the first word boundary. *)
let gen_eps_nfa =
  QCheck.Gen.(
    let* num = 1 -- 70 in
    let st = 0 -- (num - 1) in
    let* edges = list_size (0 -- (3 * num)) (triple st (0 -- 1) st) in
    let* eps = list_size (0 -- num) (pair st st) in
    let* cycle = list_size (1 -- 4) st in
    let cycle_edges =
      List.combine (0 :: cycle) (cycle @ [ 0 ])
    in
    let* starts = list_size (1 -- 3) st in
    let* finals = list_size (0 -- 3) st in
    return
      (Automata.Nfa.create ~num_states:num ~alphabet_size:2 ~starts ~finals
         ~edges ~eps_edges:(cycle_edges @ eps)))

(* The fold-of-unions step: one union per source state, then an
   epsilon-closure fixpoint of unions, independent of the closure memo. *)
let fold_of_unions_step n set a =
  let module A = Automata.Nfa in
  let union_over f s = A.Iset.fold (fun q acc -> A.Iset.union acc (f q)) s A.Iset.empty in
  let rec close frontier seen =
    if A.Iset.is_empty frontier then seen
    else
      let fresh = A.Iset.diff (union_over (A.eps_successors n) frontier) seen in
      close fresh (A.Iset.union seen fresh)
  in
  let post = union_over (fun p -> A.successors n p a) set in
  close post post

let prop_nfa_step_post =
  QCheck.Test.make ~count:100
    ~name:"nfa step/post agree with the fold-of-unions reference"
    (QCheck.make
       QCheck.Gen.(pair gen_eps_nfa (list_size (0 -- 10) (0 -- 69))))
    (fun (n, xs) ->
      let module A = Automata.Nfa in
      let num = A.num_states n in
      let set = A.Iset.of_list (List.map (fun x -> x mod num) xs) in
      List.for_all
        (fun a ->
          A.Iset.equal (A.step n set a) (fold_of_unions_step n set a)
          && List.for_all
               (fun p ->
                 A.Iset.equal (A.post n p a)
                   (fold_of_unions_step n (A.Iset.singleton p) a))
               (List.init num Fun.id))
        [ 0; 1 ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bitset_algebra;
    QCheck_alcotest.to_alcotest prop_bitset_add_remove;
    QCheck_alcotest.to_alcotest prop_bitset_shift;
    QCheck_alcotest.to_alcotest prop_bitset_hash_equal;
    Alcotest.test_case "bitset edge cases" `Quick test_bitset_edges;
    QCheck_alcotest.to_alcotest prop_symtab_roundtrip;
    Alcotest.test_case "value interning" `Quick test_value_ids;
    Alcotest.test_case "ituple basics" `Quick test_ituple_basics;
    QCheck_alcotest.to_alcotest prop_relation_model;
    QCheck_alcotest.to_alcotest prop_relation_add_remove;
    QCheck_alcotest.to_alcotest prop_cq_matches_oracle;
    QCheck_alcotest.to_alcotest prop_nfa_bitset_agrees;
    QCheck_alcotest.to_alcotest prop_nfa_step_post;
    QCheck_alcotest.to_alcotest prop_bitset_accumulator;
  ]
