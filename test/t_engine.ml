(* Tests for the shared search kernel (Engine): budget algebra, metering,
   the iterative-deepening driver, soundness of exhaustion (a starved
   budget may say Exhausted but never a wrong Yes/No), determinism of the
   scoped fresh-variable counter in Unfold, and the cache-hit counters
   behind the incremental unfolding and automata-chain memoization. *)

module R = Relational
module Term = R.Term
module Atom = R.Atom
module Relation = R.Relation
module Prop = Proplogic.Prop
open Sws

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The decision procedures default their counters into
   [Engine.Stats.global] and their provenance into the global trace ring;
   reset both around every case so no test can observe state accumulated
   by an earlier one (and alcotest's shuffled or filtered runs stay
   deterministic). *)
let reset_global (name, speed, run) =
  ( name,
    speed,
    fun args ->
      Engine.Stats.reset Engine.Stats.global;
      Obs.Trace.clear_provenances ();
      Fun.protect
        ~finally:(fun () ->
          Engine.Stats.reset Engine.Stats.global;
          Obs.Trace.clear_provenances ())
        (fun () -> run args) )

(* ------------------------------------------------------------------ *)
(* Budget algebra                                                      *)
(* ------------------------------------------------------------------ *)

let test_budget () =
  check "unlimited is unlimited" true
    (Engine.Budget.is_unlimited Engine.Budget.unlimited);
  check "of_depth is limited" false
    (Engine.Budget.is_unlimited (Engine.Budget.of_depth 3));
  let b =
    Engine.Budget.combine
      (Engine.Budget.make ~max_depth:5 ~max_nodes:10 ())
      (Engine.Budget.make ~max_depth:7 ~deadline_s:1.0 ())
  in
  check_int "combine takes min depth" 5
    (Option.get b.Engine.Budget.max_depth);
  check_int "combine keeps one-sided nodes" 10
    (Option.get b.Engine.Budget.max_nodes);
  check "combine keeps one-sided deadline" true
    (b.Engine.Budget.deadline_s = Some 1.0);
  check "combine with unlimited is identity" true
    (Engine.Budget.combine Engine.Budget.unlimited (Engine.Budget.of_nodes 4)
    = Engine.Budget.of_nodes 4)

let test_meter () =
  let stats = Engine.Stats.create () in
  let m = Engine.Meter.create ~stats (Engine.Budget.of_depth 2) in
  check "depth within budget" true (Engine.Meter.check m ~depth:2 = Ok ());
  (match Engine.Meter.check m ~depth:3 with
  | Error e ->
    check "depth limit" true (e.Engine.limit = `Depth);
    check_int "depth_reached is last full depth" 2 e.Engine.depth_reached
  | Ok () -> Alcotest.fail "depth 3 must exceed a depth-2 budget");
  let m = Engine.Meter.create ~stats (Engine.Budget.of_nodes 3) in
  Engine.Meter.tick m;
  Engine.Meter.tick ~cost:2 m;
  check_int "nodes accumulate" 3 (Engine.Meter.nodes m);
  (match Engine.Meter.check m ~depth:1 with
  | Error e -> check "nodes limit" true (e.Engine.limit = `Nodes)
  | Ok () -> Alcotest.fail "3 nodes must exhaust a 3-node budget");
  check "ticks mirrored into stats" true
    (Engine.Stats.nodes_expanded stats >= 3);
  check "no deadline, no remaining time" true
    (Engine.Meter.remaining_s m = None);
  let m = Engine.Meter.create ~stats (Engine.Budget.of_seconds 30.) in
  check "remaining time is within the deadline" true
    (match Engine.Meter.remaining_s m with
    | Some r -> r > 0. && r <= 30.
    | None -> false);
  let m = Engine.Meter.create ~stats (Engine.Budget.of_seconds 0.0) in
  check "a passed deadline leaves no time" true
    (match Engine.Meter.remaining_s m with Some r -> r <= 0. | None -> false);
  check "zero deadline trips" true
    (match Engine.Meter.check m ~depth:0 with
    | Error e -> e.Engine.limit = `Deadline
    | Ok () -> false)

let test_scan () =
  (match Engine.scan ~decisive_bound:10 (fun _ n -> if n = 4 then Some n else None) with
  | Engine.Found 4 -> ()
  | _ -> Alcotest.fail "scan must find n = 4");
  (match Engine.scan ~decisive_bound:3 (fun _ _ -> None) with
  | Engine.Completed 3 -> ()
  | _ -> Alcotest.fail "scan must complete the decisive bound");
  (match
     Engine.scan ~budget:(Engine.Budget.of_depth 2) (fun m _ ->
         Engine.Meter.tick m;
         None)
   with
  | Engine.Exhausted e ->
    check "scan exhausts on depth" true (e.Engine.limit = `Depth);
    check_int "scan explored depths 0..2" 3 e.Engine.nodes_expanded
  | _ -> Alcotest.fail "a depth budget with no answer must exhaust");
  check "unbounded scan is rejected" true
    (try
       ignore (Engine.scan (fun _ _ -> None));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Exhaustion soundness on the decision procedures                     *)
(* ------------------------------------------------------------------ *)

let tv = Term.var
let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body ()

(* A recursive, satisfiable service: no decisive bound exists, so any
   finite budget either finds the witness or reports Exhausted. *)
let recursive_lookup =
  let phi = Sws_data.Q_cq (cq [ tv "x" ] [ Atom.make "in" [ tv "x" ] ]) in
  let psi =
    Sws_data.Q_cq
      (cq [ tv "x"; tv "y" ]
         [ Atom.make "msg" [ tv "x" ]; Atom.make "r" [ tv "x"; tv "y" ] ])
  in
  let copy2 =
    Sws_data.Q_ucq
      (R.Ucq.make
         [
           cq [ tv "x"; tv "y" ] [ Atom.make "act1" [ tv "x"; tv "y" ] ];
           cq [ tv "x"; tv "y" ] [ Atom.make "act2" [ tv "x"; tv "y" ] ];
         ])
  in
  Sws_data.make ~db_schema:(R.Schema.of_list [ ("r", 2) ]) ~in_arity:1
    ~out_arity:2 ~start:"q0"
    ~rules:
      [
        ("q0", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
        ("qs", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
        ("qa", { Sws_def.succs = []; synth = psi });
      ]

(* Starved budgets never turn a satisfiable service into a No: for every
   depth budget the answer is a verified witness or a structured
   exhaustion, and big enough budgets do find the witness. *)
let prop_starved_non_emptiness =
  QCheck.Test.make ~count:7 ~name:"starved non-emptiness is never a wrong No"
    (QCheck.make (QCheck.Gen.int_range 0 6))
    (fun d ->
      match
        Decision.cq_non_emptiness ~budget:(Engine.Budget.of_depth d)
          recursive_lookup
      with
      | Decision.Yes (db, inputs, goal) ->
        Relation.mem goal (Sws_data.run recursive_lookup db inputs)
      | Decision.No -> false
      | Decision.Exhausted e ->
        (* only believable when the budget really was too small *)
        e.Engine.limit = `Depth && e.Engine.depth_reached <= d && d < 2)

(* A recursive service is trivially equivalent to itself; no finite budget
   may ever report Inequivalent, and without a decisive bound the honest
   answer is Equiv_exhausted. *)
let prop_starved_equivalence =
  QCheck.Test.make ~count:5
    ~name:"budgeted self-equivalence is never Inequivalent"
    (QCheck.make (QCheck.Gen.int_range 0 4))
    (fun d ->
      match
        Decision.cq_equivalence ~budget:(Engine.Budget.of_depth d)
          recursive_lookup recursive_lookup
      with
      | Decision.Equivalent -> false (* recursive: nothing is decisive *)
      | Decision.Inequivalent _ -> false
      | Decision.Equiv_exhausted e ->
        e.Engine.limit = `Depth && e.Engine.depth_reached = d)

(* On nonrecursive services the default budget path is decisive, and an
   explicit generous budget must agree with it. *)
let nonrec_lookup =
  let phi = Sws_data.Q_cq (cq [ tv "x" ] [ Atom.make "in" [ tv "x" ] ]) in
  let psi =
    Sws_data.Q_cq
      (cq [ tv "x"; tv "y" ]
         [ Atom.make "msg" [ tv "x" ]; Atom.make "r" [ tv "x"; tv "y" ] ])
  in
  let copy =
    Sws_data.Q_ucq
      (R.Ucq.make [ cq [ tv "x"; tv "y" ] [ Atom.make "act1" [ tv "x"; tv "y" ] ] ])
  in
  Sws_data.make ~db_schema:(R.Schema.of_list [ ("r", 2) ]) ~in_arity:1
    ~out_arity:2 ~start:"q0"
    ~rules:
      [
        ("q0", { Sws_def.succs = [ ("qa", phi) ]; synth = copy });
        ("qa", { Sws_def.succs = []; synth = psi });
      ]

let test_generous_budget_agrees () =
  let exact = Decision.cq_non_emptiness nonrec_lookup in
  let budgeted =
    Decision.cq_non_emptiness ~budget:(Engine.Budget.of_depth 8) nonrec_lookup
  in
  check "both find a witness" true
    (match (exact, budgeted) with
    | Decision.Yes _, Decision.Yes _ -> true
    | _ -> false);
  check "self-equivalence under generous budget" true
    (Decision.cq_equivalence ~budget:(Engine.Budget.of_depth 8) nonrec_lookup
       nonrec_lookup
    = Decision.Equivalent);
  (* a starved node budget on the same question stays sound *)
  match
    Decision.cq_equivalence ~budget:(Engine.Budget.of_nodes 1) recursive_lookup
      recursive_lookup
  with
  | Decision.Inequivalent _ -> Alcotest.fail "node starvation must not lie"
  | Decision.Equivalent -> Alcotest.fail "recursive pair is not decisive"
  | Decision.Equiv_exhausted e ->
    check "node limit reported" true (e.Engine.limit = `Nodes)

(* ------------------------------------------------------------------ *)
(* Unfold: scoped fresh counter and incremental memoization            *)
(* ------------------------------------------------------------------ *)

let ucq_str u = Fmt.str "%a" R.Ucq.pp u

(* Regression for the old global fresh_counter: the unfolding of the same
   service at the same depth is structurally identical on every call,
   whatever ran before and whether the memo store is warm, cold or off. *)
let test_unfold_deterministic () =
  Unfold.clear_caches ();
  let first = ucq_str (Unfold.to_ucq recursive_lookup ~n:3) in
  ignore (Unfold.to_ucq nonrec_lookup ~n:2); (* perturb any global state *)
  let again = ucq_str (Unfold.to_ucq recursive_lookup ~n:3) in
  Alcotest.(check string) "warm cache repeat" first again;
  Unfold.clear_caches ();
  let cold = ucq_str (Unfold.to_ucq recursive_lookup ~n:3) in
  Alcotest.(check string) "cold cache repeat" first cold;
  Engine.set_caching false;
  let uncached = ucq_str (Unfold.to_ucq recursive_lookup ~n:3) in
  Engine.set_caching true;
  Alcotest.(check string) "uncached repeat" first uncached

let test_unfold_cache_stats () =
  Unfold.clear_caches ();
  let stats = Engine.Stats.create () in
  (* iterative deepening: depth n + 1 must reuse depth-n entries, and the
     twin successors of recursive_lookup collapse to shared entries *)
  for n = 1 to 4 do
    ignore (Unfold.to_ucq ~stats recursive_lookup ~n)
  done;
  check "incremental unfolding hits" true
    (Engine.Stats.unfold_cache_hits stats > 0);
  check "misses on first derivations" true
    (Engine.Stats.unfold_cache_misses stats > 0);
  Engine.set_caching false;
  Unfold.clear_caches ();
  let off = Engine.Stats.create () in
  for n = 1 to 4 do
    ignore (Unfold.to_ucq ~stats:off recursive_lookup ~n)
  done;
  Engine.set_caching true;
  check_int "no hits with caching off" 0 (Engine.Stats.unfold_cache_hits off)

(* ------------------------------------------------------------------ *)
(* Stats snapshots and merging                                          *)
(* ------------------------------------------------------------------ *)

let test_stats_merge () =
  let a = Engine.Stats.create () in
  let b = Engine.Stats.create () in
  Engine.Stats.node ~count:3 a;
  Engine.Stats.sat_call a;
  Engine.Stats.node b;
  Engine.Stats.unfold_hit b;
  let m = Engine.Stats.merge a b in
  check_int "merged nodes" 4 (Engine.Stats.nodes_expanded m);
  check_int "merged sat calls" 1 (Engine.Stats.sat_calls m);
  check_int "merged unfold hits" 1 (Engine.Stats.unfold_cache_hits m);
  (* merge must not alias its inputs *)
  Engine.Stats.node m;
  check_int "inputs unchanged" 3 (Engine.Stats.nodes_expanded a);
  (* snapshot/delta: the delta of a run is exactly what the run did *)
  let before = Engine.Stats.snapshot a in
  Engine.Stats.node ~count:2 a;
  Engine.Stats.hom_check a;
  let d = Engine.Stats.delta ~before a in
  check_int "delta nodes" 2 (List.assoc "nodes_expanded" d);
  check_int "delta hom checks" 1 (List.assoc "hom_checks" d);
  check_int "delta sat calls" 0 (List.assoc "sat_calls" d)

(* ------------------------------------------------------------------ *)

let suite =
  List.map reset_global
    [
      Alcotest.test_case "budget algebra" `Quick test_budget;
      Alcotest.test_case "meter limits" `Quick test_meter;
      Alcotest.test_case "scan driver" `Quick test_scan;
      QCheck_alcotest.to_alcotest prop_starved_non_emptiness;
      QCheck_alcotest.to_alcotest prop_starved_equivalence;
      Alcotest.test_case "generous budget agrees" `Quick
        test_generous_budget_agrees;
      Alcotest.test_case "unfold determinism" `Quick test_unfold_deterministic;
      Alcotest.test_case "unfold cache stats" `Quick test_unfold_cache_stats;
      Alcotest.test_case "stats merge and delta" `Quick test_stats_merge;
    ]
