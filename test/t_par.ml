(* Agreement suites for the multicore kernel (lib/par) and the parallel
   paths wired through it.  The sequential run is the reference semantics:
   every property forces --jobs 1 and --jobs 4 explicitly and demands
   identical answers — identical DFAs from determinization, identical
   substitution lists from the three join strategies, identical scan
   outcomes from the candidate fan-out.  A separate stress test hammers
   the interner and the scan-array cache from eight raw domains. *)

module R = Relational
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
open Sws

let check = Alcotest.(check bool)

(* Run [f] under a forced job count, restoring the default afterwards. *)
let with_jobs n f =
  Par.Pool.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Par.Pool.set_jobs None) f

(* ------------------------------------------------------------------ *)
(* Combinators against their sequential specifications                  *)
(* ------------------------------------------------------------------ *)

let gen_ints = QCheck.Gen.(array_size (0 -- 60) (0 -- 1000))

let prop_combinators_agree =
  QCheck.Test.make ~count:100
    ~name:"parallel combinators = sequential map/fold at 4 jobs"
    (QCheck.make gen_ints)
    (fun arr ->
      let f x = (x * 7) + 3 in
      with_jobs 4 (fun () ->
          Par.Pool.parallel_map f arr = Array.map f arr
          && Par.Pool.parallel_list_map f (Array.to_list arr)
             = List.map f (Array.to_list arr)
          && Par.Pool.parallel_fold ~map:f ~combine:( + ) ~init:0 arr
             = Array.fold_left (fun acc x -> acc + f x) 0 arr))

let test_combinator_edges () =
  with_jobs 4 (fun () ->
      check "empty array" true (Par.Pool.parallel_map succ [||] = [||]);
      check "singleton" true (Par.Pool.parallel_map succ [| 41 |] = [| 42 |]);
      check "order preserved" true
        (Par.Pool.parallel_list_map (fun x -> x) (List.init 100 Fun.id)
        = List.init 100 Fun.id);
      (* a task exception must surface in the caller, not hang the pool *)
      check "exception propagates" true
        (match
           Par.Pool.parallel_list_map
             (fun x -> if x = 13 then failwith "boom" else x)
             (List.init 20 Fun.id)
         with
        | _ -> false
        | exception Failure _ -> true);
      (* the pool still works after a failed batch *)
      check "pool survives the exception" true
        (Par.Pool.parallel_list_map succ [ 1; 2; 3 ] = [ 2; 3; 4 ]);
      (* nested calls run inline instead of deadlocking *)
      check "nested parallel calls" true
        (Par.Pool.parallel_list_map
           (fun x ->
             List.fold_left ( + ) 0
               (Par.Pool.parallel_list_map (( * ) x) [ 1; 2; 3 ]))
           [ 1; 2 ]
        = [ 6; 12 ]))

(* ------------------------------------------------------------------ *)
(* Determinization: identical DFAs at every job count                   *)
(* ------------------------------------------------------------------ *)

let dfa_identical d1 d2 =
  Dfa.num_states d1 = Dfa.num_states d2
  && Dfa.alphabet_size d1 = Dfa.alphabet_size d2
  && Dfa.start d1 = Dfa.start d2
  && Dfa.finals d1 = Dfa.finals d2
  && List.for_all
       (fun q ->
         List.for_all
           (fun a -> Dfa.delta d1 q a = Dfa.delta d2 q a)
           (List.init (Dfa.alphabet_size d1) Fun.id))
       (List.init (Dfa.num_states d1) Fun.id)

(* Random NFAs: a state count plus raw edge data clamped by mod, so the
   generator stays independent of the size draw. *)
let gen_raw_nfa =
  QCheck.Gen.(
    quad (2 -- 7)
      (list_size (0 -- 30) (triple (0 -- 100) (0 -- 1) (0 -- 100)))
      (list_size (0 -- 5) (pair (0 -- 100) (0 -- 100)))
      (list_size (1 -- 3) (0 -- 100)))

let build_nfa (n, raw_edges, raw_eps, raw_finals) =
  let clamp q = q mod n in
  Nfa.create ~num_states:n ~alphabet_size:2 ~starts:[ 0 ]
    ~finals:(List.map clamp raw_finals)
    ~edges:(List.map (fun (q, a, q') -> (clamp q, a, clamp q')) raw_edges)
    ~eps_edges:(List.map (fun (q, q') -> (clamp q, clamp q')) raw_eps)

let prop_dfa_jobs_agree =
  QCheck.Test.make ~count:120
    ~name:"subset construction: jobs 4 builds the jobs-1 DFA bit for bit"
    (QCheck.make gen_raw_nfa)
    (fun raw ->
      let nfa = build_nfa raw in
      let d1 = with_jobs 1 (fun () -> Dfa.of_nfa nfa) in
      let d4 = with_jobs 4 (fun () -> Dfa.of_nfa nfa) in
      dfa_identical d1 d4)

(* The exponential family from the benchmark: "k-th symbol from the end",
   whose DFA needs 2^k states — the uncached determinization hot loop. *)
let kth_from_end_nfa k =
  let edges =
    (0, 0, 0) :: (0, 1, 0) :: (0, 0, 1)
    :: List.concat_map
         (fun i -> [ (i, 0, i + 1); (i, 1, i + 1) ])
         (List.init (k - 1) (fun i -> i + 1))
  in
  Nfa.create ~num_states:(k + 1) ~alphabet_size:2 ~starts:[ 0 ] ~finals:[ k ]
    ~edges ~eps_edges:[]

let test_dfa_exponential_family () =
  List.iter
    (fun k ->
      let nfa = kth_from_end_nfa k in
      let d1 = with_jobs 1 (fun () -> Dfa.of_nfa nfa) in
      let d4 = with_jobs 4 (fun () -> Dfa.of_nfa nfa) in
      check
        (Printf.sprintf "k=%d DFAs identical" k)
        true (dfa_identical d1 d4);
      check
        (Printf.sprintf "k=%d has 2^%d states" k k)
        true
        (Dfa.num_states d1 = 1 lsl k))
    [ 4; 6; 8 ]

let prop_shortest_word_jobs_agree =
  QCheck.Test.make ~count:120
    ~name:"nfa shortest_word: jobs 4 returns the jobs-1 witness"
    (QCheck.make gen_raw_nfa)
    (fun raw ->
      let nfa = build_nfa raw in
      with_jobs 1 (fun () -> Nfa.shortest_word nfa)
      = with_jobs 4 (fun () -> Nfa.shortest_word nfa))

(* ------------------------------------------------------------------ *)
(* Indexed joins: identical relations, all three strategies             *)
(* ------------------------------------------------------------------ *)

let line_graph_db n =
  List.fold_left
    (fun db i ->
      R.Database.add_tuple "e"
        (R.Tuple.of_list [ R.Value.int i; R.Value.int (i + 1) ])
        db)
    (R.Database.empty (R.Schema.of_list [ ("e", 2) ]))
    (List.init n Fun.id)

let chain_q len =
  let v = R.Term.var in
  R.Cq.make
    ~head:[ v "x0"; v (Printf.sprintf "x%d" len) ]
    ~body:
      (List.init len (fun i ->
           R.Atom.make "e"
             [ v (Printf.sprintf "x%d" i); v (Printf.sprintf "x%d" (i + 1)) ]))
    ()

let subst_identical s1 s2 =
  let l1 = R.Subst.to_list s1 and l2 = R.Subst.to_list s2 in
  List.length l1 = List.length l2
  && List.for_all2
       (fun (x1, v1) (x2, v2) -> x1 = x2 && R.Value.equal v1 v2)
       l1 l2

(* The outer relations must clear Cq's parallel fan-out threshold (16
   tuples), otherwise the parallel path is never taken. *)
let prop_cq_strategies_jobs_agree =
  QCheck.Test.make ~count:40
    ~name:"cq joins: jobs 4 = jobs 1 substitution lists, all strategies"
    (QCheck.make QCheck.Gen.(pair (20 -- 80) (1 -- 4)))
    (fun (n, len) ->
      let db = line_graph_db n in
      let q = chain_q len in
      List.for_all
        (fun strategy ->
          let seq =
            with_jobs 1 (fun () -> R.Cq.eval_substs ~strategy q db)
          in
          let par =
            with_jobs 4 (fun () -> R.Cq.eval_substs ~strategy q db)
          in
          List.length seq = List.length par
          && List.for_all2 subst_identical seq par
          && R.Relation.equal
               (with_jobs 1 (fun () -> R.Cq.eval ~strategy q db))
               (with_jobs 4 (fun () -> R.Cq.eval ~strategy q db)))
        [ `Naive; `Greedy; `Indexed ])

(* ------------------------------------------------------------------ *)
(* Candidate fan-out: identical scan outcomes, Exhausted soundness       *)
(* ------------------------------------------------------------------ *)

let test_find_first_agrees () =
  let candidates = List.init 100 Fun.id in
  let probe x = if x > 0 && x mod 17 = 0 then Some x else None in
  let r1 = with_jobs 1 (fun () -> Engine.find_first probe candidates) in
  let r4 = with_jobs 4 (fun () -> Engine.find_first probe candidates) in
  check "first match in list order" true (r1 = Some 17 && r4 = Some 17);
  check "no match agrees" true
    (with_jobs 4 (fun () ->
         Engine.find_first (fun _ -> None) candidates = None));
  (* the winner is the first in candidate order even when a later
     candidate of the same round also matches *)
  let probe_many x = if x >= 40 then Some x else None in
  check "ties break to list order" true
    (with_jobs 4 (fun () -> Engine.find_first probe_many candidates)
    = Some 40)

(* A scan whose probe fans out over candidates: the outcome — including a
   budget trip — must be identical at jobs 1 and 4, and the node count at
   the trip must never be smaller with more jobs (Exhausted soundness:
   parallel rounds may overshoot at the decisive depth, never undercount). *)
let test_scan_outcomes_agree () =
  let scan_with target =
    Engine.scan ~stats:(Engine.Stats.create ())
      ~budget:(Engine.Budget.of_nodes 40) ~name:"t_par_scan" (fun meter n ->
        Engine.find_first
          (fun c ->
            Engine.Meter.tick meter;
            if (n * 10) + c = target then Some (n, c) else None)
          (List.init 10 Fun.id))
  in
  (* decisive answer at depth 3 *)
  let f1 = with_jobs 1 (fun () -> scan_with 35) in
  let f4 = with_jobs 4 (fun () -> scan_with 35) in
  check "found outcome agrees" true
    (match (f1, f4) with
    | Engine.Found w1, Engine.Found w4 -> w1 = (3, 5) && w4 = (3, 5)
    | _ -> false);
  (* unreachable target: the node budget trips *)
  let e1 = with_jobs 1 (fun () -> scan_with (-1)) in
  let e4 = with_jobs 4 (fun () -> scan_with (-1)) in
  check "exhausted outcome agrees and never under-reports" true
    (match (e1, e4) with
    | Engine.Exhausted a, Engine.Exhausted b ->
      a.Engine.limit = `Nodes
      && b.Engine.limit = `Nodes
      && a.Engine.depth_reached = b.Engine.depth_reached
      && b.Engine.nodes_expanded >= a.Engine.nodes_expanded
    | _ -> false)

(* End-to-end through a bounded procedure: the round-based mdtb search
   must return the same mediator plan at every job count. *)
let test_compose_mdtb_agrees () =
  let sym a = Nfa.symbol 2 a in
  let components = [ ("A", sym 0); ("B", sym 1) ] in
  let goal = Nfa.concat (sym 0) (sym 1) in
  let run () =
    Compose.compose_mdtb ~budget:(Engine.Budget.of_depth 2) ~goal ~components
      ()
  in
  let r1 = with_jobs 1 run and r4 = with_jobs 4 run in
  check "same plan found" true
    (match (r1, r4) with
    | Compose.Found p1, Compose.Found p4 -> p1 = p4
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* 8-domain stress: interning and the scan-array cache                  *)
(* ------------------------------------------------------------------ *)

let test_interning_stress () =
  (* Eight raw domains intern an overlapping mix of shared and private
     strings.  Interning must be injective across all of them: one id per
     distinct string, the same id for the same string wherever it was
     interned, and of_id a total inverse. *)
  let n_domains = 8 and per_domain = 120 in
  let results =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            List.init per_domain (fun i ->
                let name =
                  if i mod 2 = 0 then Printf.sprintf "shared-%d" (i / 2)
                  else Printf.sprintf "dom%d-%d" d i
                in
                (name, R.Value.id (R.Value.str name)))))
    |> List.map Domain.join
    |> List.concat
  in
  let by_name = Hashtbl.create 256 in
  let consistent = ref true in
  List.iter
    (fun (name, id) ->
      match Hashtbl.find_opt by_name name with
      | None -> Hashtbl.add by_name name id
      | Some id' -> if id <> id' then consistent := false)
    results;
  check "same string, same id, on every domain" true !consistent;
  let ids = Hashtbl.fold (fun _ id acc -> id :: acc) by_name [] in
  check "distinct strings, distinct ids" true
    (List.length (List.sort_uniq compare ids) = Hashtbl.length by_name);
  check "of_id inverts id" true
    (Hashtbl.fold
       (fun name id acc ->
         acc && R.Value.equal (R.Value.of_id id) (R.Value.str name))
       by_name true)

let test_scan_array_stress () =
  (* Eight domains race the lazily-published scan cache of one relation;
     every one must read the same tuple array. *)
  let rel =
    R.Relation.of_list 2
      (List.init 50 (fun i ->
           R.Tuple.of_list [ R.Value.int i; R.Value.int (i * i) ]))
  in
  let reference = Array.to_list (R.Relation.scan_array rel) in
  let witnesses =
    List.init 8 (fun _ ->
        Domain.spawn (fun () -> Array.to_list (R.Relation.scan_array rel)))
    |> List.map Domain.join
  in
  check "every domain reads the same scan array" true
    (List.for_all (fun w -> w = reference) witnesses)

(* ------------------------------------------------------------------ *)

(* [Par.Shard] cells are created per swsd request ([Engine.Stats.create])
   and per database ([Index.create] inside [Database.empty]); a dropped
   cell must leave nothing behind. *)
let test_shard_cells_reclaimed () =
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let growth name f =
    ignore (f ());
    let before = live_words () in
    for _ = 1 to 100_000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    let grown = live_words () - before in
    if grown >= 50_000 then
      Alcotest.failf "%s: 100k dropped cells retained %d live words" name grown
  in
  growth "Engine.Stats.create" Engine.Stats.create;
  growth "Database.empty" (fun () -> R.Database.empty R.Schema.empty)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_combinators_agree;
    Alcotest.test_case "combinator edge cases" `Quick test_combinator_edges;
    QCheck_alcotest.to_alcotest prop_dfa_jobs_agree;
    Alcotest.test_case "exponential determinization family" `Quick
      test_dfa_exponential_family;
    QCheck_alcotest.to_alcotest prop_shortest_word_jobs_agree;
    QCheck_alcotest.to_alcotest prop_cq_strategies_jobs_agree;
    Alcotest.test_case "find_first agrees across job counts" `Quick
      test_find_first_agrees;
    Alcotest.test_case "scan outcomes agree, Exhausted is sound" `Quick
      test_scan_outcomes_agree;
    Alcotest.test_case "compose_mdtb agrees across job counts" `Quick
      test_compose_mdtb_agrees;
    Alcotest.test_case "8-domain interning stress" `Quick
      test_interning_stress;
    Alcotest.test_case "8-domain scan-array stress" `Quick
      test_scan_array_stress;
    Alcotest.test_case "dropped shard cells are reclaimed" `Quick
      test_shard_cells_reclaimed;
  ]
