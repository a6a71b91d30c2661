(* The multicore kernel (lib/par) and the answers it must not change.
   One grain of parallelism is left, the request: [Par.Pool.async] runs a
   whole computation on a worker domain, and everything inside it is
   sequential.  The async tests pin the pool's contract (values,
   exceptions, inline mode at one job, nested tasks inline); the indexed
   join is checked against the nested-loop oracle; the candidate scans
   and the mdtb search must give identical outcomes, budget trips
   included, at jobs 1 and 4.  Stress tests hammer the interner and the
   scan-array cache from eight raw domains, and dropped shard cells must
   be reclaimed. *)

module R = Relational
module Nfa = Automata.Nfa
open Sws

let check = Alcotest.(check bool)

(* Run [f] under a forced job count, restoring the default afterwards. *)
let with_jobs n f =
  Par.Pool.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Par.Pool.set_jobs None) f

(* ------------------------------------------------------------------ *)
(* The request hop: Pool.async / Pool.await                             *)
(* ------------------------------------------------------------------ *)

(* Eight systhreads each submit 25 tasks at jobs 4 and await them in
   order: every await returns its own task's value. *)
let test_async_values () =
  with_jobs 4 (fun () ->
      let threads = 8 and per_thread = 25 in
      let ok = Array.make threads false in
      let submitter t =
        let promises =
          List.init per_thread (fun i ->
              let v = (t * 1000) + i in
              (v, Par.Pool.async (fun () -> v * v)))
        in
        ok.(t) <-
          List.for_all (fun (v, p) -> Par.Pool.await p = v * v) promises
      in
      List.init threads (Thread.create submitter)
      |> List.iter Thread.join;
      check "each await returns its own value" true
        (Array.for_all Fun.id ok))

(* A task's exception is re-raised in the awaiter, and the pool keeps
   serving promises afterwards. *)
let test_async_exception () =
  with_jobs 4 (fun () ->
      let failing = Par.Pool.async (fun () -> failwith "boom") in
      check "exception reaches the awaiter" true
        (match Par.Pool.await failing with
        | () -> false
        | exception Failure m -> m = "boom");
      check "the pool serves the next promise" true
        (Par.Pool.await (Par.Pool.async (fun () -> 41 + 1)) = 42))

(* At jobs 1 nothing is enqueued: the thunk runs when it is awaited. *)
let test_async_inline_at_one_job () =
  with_jobs 1 (fun () ->
      let ran = ref false in
      let p =
        Par.Pool.async (fun () ->
            ran := true;
            7)
      in
      check "not run before await" false !ran;
      check "await runs it" true (Par.Pool.await p = 7 && !ran))

(* An async submitted from inside a task runs inline on the task's own
   domain instead of waiting on a worker that may be busy with it. *)
let test_nested_async_inline () =
  with_jobs 4 (fun () ->
      let outer, inner =
        Par.Pool.await
          (Par.Pool.async (fun () ->
               let inner =
                 Par.Pool.await (Par.Pool.async (fun () -> Domain.self ()))
               in
               (Domain.self (), inner)))
      in
      check "the task ran on a pool domain" true (outer <> Domain.self ());
      check "the nested task ran on the same domain" true (inner = outer))

(* ------------------------------------------------------------------ *)
(* Indexed joins: oracle answers                                       *)
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

(* Line graphs of 20-80 edges: the sequential join, on root relations
   larger than the 16-branch fan-out it replaced, against the nested-loop
   oracle. *)
let prop_cq_eval_oracle =
  QCheck.Test.make ~count:40 ~name:"cq joins = nested-loop oracle"
    (QCheck.make QCheck.Gen.(pair (20 -- 80) (1 -- 4)))
    (fun (n, len) ->
      let db = line_graph_db n in
      let q = chain_q len in
      R.Relation.equal (R.Cq.eval q db) (Oracle.cq_eval q db))

(* ------------------------------------------------------------------ *)
(* Candidate scans: identical outcomes and budget trips at every job     *)
(* count                                                                *)
(* ------------------------------------------------------------------ *)

(* [f] at a forced job count with the result memo off, so each run
   computes its answer rather than serving the other's. *)
let uncached jobs f =
  Engine.set_caching false;
  Fun.protect ~finally:(fun () -> Engine.set_caching true) (fun () ->
      with_jobs jobs f)

let tv = R.Term.var
let cqm ?neqs head body = R.Cq.make ?neqs ~head ~body ()

(* A recursive lookup service whose leaf synthesis is [psi]: every input
   length unfolds to more disjuncts, so the non-emptiness scan is a
   budget-bounded semi-procedure. *)
let recursive_service psi =
  let copy2 =
    Sws_data.Q_ucq
      (R.Ucq.make
         [
           cqm [ tv "x"; tv "y" ] [ R.Atom.make "act1" [ tv "x"; tv "y" ] ];
           cqm [ tv "x"; tv "y" ] [ R.Atom.make "act2" [ tv "x"; tv "y" ] ];
         ])
  in
  let phi = Sws_data.Q_cq (cqm [ tv "x" ] [ R.Atom.make "in" [ tv "x" ] ]) in
  Sws_data.make
    ~db_schema:(R.Schema.of_list [ ("pr", 2) ])
    ~in_arity:1 ~out_arity:2 ~start:"q0"
    ~rules:
      [
        ("q0", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
        ("qs", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
        ("qa", { Sws_def.succs = []; synth = psi });
      ]

(* two satisfiable leaf disjuncts: the scan's decisive depth has more
   than one candidate, and the first one answers *)
let witness_service =
  let leaf =
    cqm [ tv "x"; tv "y" ]
      [ R.Atom.make "msg" [ tv "x" ]; R.Atom.make "pr" [ tv "x"; tv "y" ] ]
  in
  recursive_service (Sws_data.Q_ucq (R.Ucq.make [ leaf; leaf ]))

(* the leaf's inequality x <> x is unsatisfiable: the scan can only trip *)
let empty_service =
  recursive_service
    (Sws_data.Q_cq
       (cqm ~neqs:[ (tv "x", tv "x") ] [ tv "x"; tv "x" ]
          [ R.Atom.make "msg" [ tv "x" ] ]))

let same_exhausted (a : Engine.exhausted) (b : Engine.exhausted) =
  a.limit = b.limit
  && a.depth_reached = b.depth_reached
  && a.nodes_expanded = b.nodes_expanded

(* The first match in candidate order, at jobs 1 and 4: the first UCQ
   disjunct with a consistent partition, and the first mediator that
   agrees with the goal on the samples. *)
let test_candidate_scans_agree () =
  let non_empty () =
    Decision.cq_non_emptiness ~budget:(Engine.Budget.of_depth 4)
      witness_service
  in
  check "cq_non_emptiness: same witness" true
    (match (uncached 1 non_empty, uncached 4 non_empty) with
    | Decision.Yes (db1, in1, t1), Decision.Yes (db4, in4, t4) ->
      R.Database.equal db1 db4
      && List.equal R.Relation.equal in1 in4
      && R.Tuple.equal t1 t4
    | _ -> false);
  let db_schema = R.Schema.of_list [ ("r", 2); ("s", 2) ] in
  let service rel =
    Compose.query_service ~db_schema
      (cqm [ tv "x"; tv "y" ] [ R.Atom.make rel [ tv "x"; tv "y" ] ])
  in
  let search goal components () =
    Compose.compose_bounded_search ~db_schema ~goal ~components ()
  in
  let shown m =
    Fmt.str "%a"
      (Sws_def.pp Fmt.string Sws_data.pp_query)
      (Mediator.def m)
  in
  (* the goal is the third component: two single invocations are refuted
     first *)
  let components = [ ("vs", service "s"); ("vs2", service "s"); ("vr", service "r") ] in
  check "compose_bounded_search: same mediator" true
    (match
       ( uncached 1 (search (service "r") components),
         uncached 4 (search (service "r") components) )
     with
    | Compose.Candidate m1, Compose.Candidate m4 -> shown m1 = shown m4
    | _ -> false);
  let components = [ ("vs", service "s") ] in
  check "compose_bounded_search: same miss" true
    (match
       ( uncached 1 (search (service "r") components),
         uncached 4 (search (service "r") components) )
     with
    | Compose.None_within_bound e1, Compose.None_within_bound e4 ->
      same_exhausted e1 e4
    | _ -> false)

(* A non-emptiness scan under a node budget: the witness, and the trip on
   a service with none, are identical at jobs 1 and 4, and so is the work
   done — no candidate runs past the first decisive one. *)
let test_scan_outcomes_agree () =
  let run svc jobs =
    let stats = Engine.Stats.create () in
    let r =
      uncached jobs (fun () ->
          Decision.cq_non_emptiness ~stats
            ~budget:(Engine.Budget.of_nodes 40) svc)
    in
    (r, Engine.Stats.nodes_expanded stats)
  in
  let (f1, n1), (f4, n4) = (run witness_service 1, run witness_service 4) in
  check "found outcome agrees" true
    (match (f1, f4) with
    | Decision.Yes (db1, _, t1), Decision.Yes (db4, _, t4) ->
      R.Database.equal db1 db4 && R.Tuple.equal t1 t4
    | _ -> false);
  Alcotest.(check int) "found after the same nodes" n1 n4;
  check "exhausted outcome is identical" true
    (match (fst (run empty_service 1), fst (run empty_service 4)) with
    | Decision.Exhausted a, Decision.Exhausted b ->
      a.Engine.limit = `Nodes && same_exhausted a b
    | _ -> false)

(* End-to-end through the MDT_b search: the same mediator plan, and the
   same budget trip, at every job count. *)
let test_compose_mdtb_agrees () =
  let sym a = Nfa.symbol 2 a in
  let components = [ ("A", sym 0); ("B", sym 1) ] in
  let goal = Nfa.concat (sym 0) (sym 1) in
  let run () =
    Compose.compose_mdtb ~budget:(Engine.Budget.of_depth 2) ~goal ~components
      ()
  in
  let r1 = uncached 1 run and r4 = uncached 4 run in
  check "same plan found" true
    (match (r1, r4) with
    | Compose.Found p1, Compose.Found p4 -> p1 = p4
    | _ -> false);
  (* no plan over three components matches [bbb]; 50 of the 444 plans
     fit the node budget *)
  let nfa2 r = Nfa.of_regex ~alphabet_size:2 (Automata.Regex.parse r) in
  let trip () =
    Compose.compose_mdtb
      ~budget:(Engine.Budget.make ~max_depth:2 ~max_nodes:50 ())
      ~goal:(nfa2 "bbb")
      ~components:[ ("A", nfa2 "ab"); ("B", nfa2 "ba"); ("C", nfa2 "aa") ]
      ()
  in
  check "same trip" true
    (match (uncached 1 trip, uncached 4 trip) with
    | Compose.No_mediator_within_bound a, Compose.No_mediator_within_bound b ->
      a.Engine.limit = `Nodes && a.Engine.nodes_expanded = 50
      && same_exhausted a b
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
    Alcotest.test_case "async: each await gets its own value" `Quick
      test_async_values;
    Alcotest.test_case "async: task exception reaches awaiter" `Quick
      test_async_exception;
    Alcotest.test_case "async at one job runs at await" `Quick
      test_async_inline_at_one_job;
    Alcotest.test_case "nested async runs inline" `Quick
      test_nested_async_inline;
    Alcotest.test_case "compose_mdtb agrees across job counts" `Quick
      test_compose_mdtb_agrees;
    QCheck_alcotest.to_alcotest prop_cq_eval_oracle;
    Alcotest.test_case "candidate scans agree across job counts" `Quick
      test_candidate_scans_agree;
    Alcotest.test_case "scan outcomes agree, Exhausted is sound" `Quick
      test_scan_outcomes_agree;
    Alcotest.test_case "8-domain interning stress" `Quick
      test_interning_stress;
    Alcotest.test_case "8-domain scan-array stress" `Quick
      test_scan_array_stress;
    Alcotest.test_case "dropped shard cells are reclaimed" `Quick
      test_shard_cells_reclaimed;
  ]
