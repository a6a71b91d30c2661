(* Benchmark harness: regenerates the *shape* of every table and figure in
   the paper's evaluation — Table 1 (decision problems), Table 2
   (composition synthesis) and Figure 1 (FSA vs SWS specification of the
   travel service) — plus the design ablations listed in DESIGN.md.

   The paper is a theory paper: its tables report complexity classes, not
   wall-clock numbers.  Each section below therefore runs the implemented
   decision/synthesis procedure on a scaling instance family and prints a
   size -> time series whose growth curve exhibits the predicted class
   (e.g. the NP cells scale through a SAT solver, the PSPACE cells through
   on-the-fly vector exploration, the EXPTIME cell through an exponential
   unfolding).  EXPERIMENTS.md records the paper-vs-measured reading.

     dune exec bench/main.exe                          full run
     dune exec bench/main.exe -- quick                 smaller sweeps
     dune exec bench/main.exe -- overhead              tracing-overhead
                                                       section only
     dune exec bench/main.exe -- cache                 cache ablation only
                                                       (cold/warm/invalidated,
                                                       writes BENCH_cache.json)
     dune exec bench/main.exe -- --json FILE           also write a
                                                       machine-readable report
     dune exec bench/main.exe -- server --jobs N       size the in-process
                                                       server's domain pool
                                                       (N >= 1)

   With [--json FILE] every printed series also lands in a JSON report
   (schema below) carrying per-point medians, the engine counter deltas
   observed while measuring (node counts, SAT calls, cache hits/misses and
   the derived hit rates), the tracing-overhead comparison and the span
   latency histograms of the traced run — the artifact CI uploads as
   BENCH_pr3.json (and BENCH_pr4.json for the representation PR).

   The final section registers one Bechamel micro-benchmark per table, as a
   stable timing reference for the headline operations. *)

module R = Relational
module Prop = Proplogic.Prop
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Afa = Automata.Afa
open Sws

let quick = Array.exists (String.equal "quick") Sys.argv

(* "overhead" runs only the tracing-overhead section — the quick way to
   re-check the <= 5% contract without the full sweep *)
let overhead_only = Array.exists (String.equal "overhead") Sys.argv

let json_path =
  let rec find = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(* --jobs N: the job count of the in-process server that [bench server]
   (and the cache ablation's server segment) starts, which runs each
   request on one pool domain; everything else computes sequentially
   whatever the job count.  A missing, non-numeric or non-positive N
   exits 2 rather than silently running at the default job count. *)
let cli_jobs =
  let rec find = function
    | "--jobs" :: rest -> (
      match Option.bind (List.nth_opt rest 0) int_of_string_opt with
      | Some n when n >= 1 -> Some n
      | _ ->
        prerr_endline "bench: --jobs expects a positive integer";
        exit 2)
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let () = Par.Pool.set_jobs cli_jobs

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Wall-clock timing on the OS monotonic clock ([Obs.Clock], shared with
   the engine's meter and the trace timestamps).  [Sys.time] measures
   process CPU time at a coarse resolution, which both under-counts
   anything that blocks and quantizes the fast end of the series;
   CLOCK_MONOTONIC in nanoseconds is what the growth curves need. *)
let time_ms f =
  let t0 = Obs.Clock.now_ns () in
  let result = f () in
  (result, Obs.Clock.ns_to_ms (Obs.Clock.elapsed_ns t0))

let median xs =
  let sorted = List.sort Float.compare xs in
  let n = List.length sorted in
  if n = 0 then invalid_arg "median: empty sample"
  else if n mod 2 = 1 then List.nth sorted (n / 2)
  else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Machine-readable report                                             *)
(* ------------------------------------------------------------------ *)

(* Each [measure] call leaves the engine-counter delta it observed in a
   queue; [series] pairs the queued deltas with its rows by position when
   the arithmetic works out (one [measure] per row, evaluated in order,
   which holds for every table/figure series below) and drops them
   otherwise (the ablation sections measure outside series rows).  The
   queue is cleared at every [header] and [series] so a mismatch never
   leaks counters across sections. *)
module Report = struct
  type point = {
    label : string;
    median_ms : float;
    repeats : int;
    counters : (string * int) list option;
  }

  type series = { s_name : string; points : point list }
  type section = { title : string; mutable series_rev : series list }

  let sections_rev : section list ref = ref []
  let pending : ((string * int) list * int) Queue.t = Queue.create ()

  let open_section title =
    Queue.clear pending;
    sections_rev := { title; series_rev = [] } :: !sections_rev

  let add_series name rows =
    let deltas = List.of_seq (Queue.to_seq pending) in
    Queue.clear pending;
    let points =
      if List.length deltas = List.length rows then
        List.map2
          (fun (label, ms) (delta, repeats) ->
            (* the delta spans all repeats; report the per-run average *)
            let per_run =
              List.map (fun (k, v) -> (k, v / max repeats 1)) delta
            in
            { label; median_ms = ms; repeats; counters = Some per_run })
          rows deltas
      else
        List.map
          (fun (label, ms) ->
            { label; median_ms = ms; repeats = 0; counters = None })
          rows
    in
    match !sections_rev with
    | [] -> ()
    | s :: _ -> s.series_rev <- { s_name = name; points } :: s.series_rev

  let hit_rate counters layer =
    let get k = Option.value ~default:0 (List.assoc_opt k counters) in
    let hits = get (layer ^ "_cache_hits") and misses = get (layer ^ "_cache_misses") in
    if hits + misses = 0 then None
    else Some (float_of_int hits /. float_of_int (hits + misses))

  let point_to_json p =
    let open Obs.Json in
    let base =
      [ ("label", String p.label); ("median_ms", Float p.median_ms) ]
    in
    let extra =
      match p.counters with
      | None -> []
      | Some cs ->
        let rates =
          List.filter_map
            (fun layer ->
              Option.map
                (fun r -> (layer ^ "_cache_hit_rate", Float r))
                (hit_rate cs layer))
            [ "unfold" ]
        in
        [ ("repeats", Int p.repeats);
          ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) cs)) ]
        @ rates
    in
    Obj (base @ extra)

  let to_json ~mode ~tracing ~histograms =
    let open Obs.Json in
    let sections =
      List.rev_map
        (fun s ->
          Obj
            [ ("title", String s.title);
              ( "series",
                List
                  (List.rev_map
                     (fun sr ->
                       Obj
                         [ ("name", String sr.s_name);
                           ("points", List (List.map point_to_json sr.points));
                         ])
                     s.series_rev) );
            ])
        !sections_rev
    in
    Obj
      [ ("schema_version", Int 1);
        ("suite", String "sws-bench");
        ("mode", String mode);
        ("sections", List sections);
        ("tracing_overhead", tracing);
        ("histograms", histograms);
      ]
end

let measure ?(repeats = 3) f =
  let before = Engine.Stats.snapshot Engine.Stats.global in
  let times = List.init repeats (fun _ -> snd (time_ms f)) in
  Queue.push
    (Engine.Stats.delta ~before Engine.Stats.global, repeats)
    Report.pending;
  median times

let header title =
  Report.open_section title;
  Fmt.pr "@.=== %s ===@." title

let row fmt = Fmt.pr ("  " ^^ fmt ^^ "@.")

let series name pairs =
  Report.add_series name pairs;
  Fmt.pr "@.-- %s --@." name;
  Fmt.pr "  %-28s %12s@." "instance" "time (ms)";
  List.iter (fun (label, ms) -> Fmt.pr "  %-28s %12.3f@." label ms) pairs

let rng = Random.State.make [| 20080611 |] (* PODS 2008 *)

(* ------------------------------------------------------------------ *)
(* Table 1, row SWS_nr(PL, PL): NP / NP / coNP via SAT                  *)
(* ------------------------------------------------------------------ *)

let random_cnf n_vars n_clauses =
  let lit () =
    let x = Prop.var (Printf.sprintf "x%d" (Random.State.int rng n_vars)) in
    if Random.State.bool rng then x else Prop.Not x
  in
  Prop.conj
    (List.init n_clauses (fun _ -> Prop.disj [ lit (); lit (); lit () ]))

let table1_pl_nr () =
  header "Table 1 / SWS_nr(PL,PL): non-emptiness (np-c), validation (np-c), equivalence (conp-c)";
  let sizes = if quick then [ 10; 20 ] else [ 10; 20; 40; 80 ] in
  series "non-emptiness (SAT on the unfolding)"
    (List.map
       (fun n ->
         let sws = Reductions.sws_of_sat (random_cnf n (4 * n)) in
         ( Printf.sprintf "%d vars, %d clauses" n (4 * n),
           measure (fun () -> ignore (Decision.pl_nr_non_emptiness sws)) ))
       sizes);
  series "equivalence (UNSAT of the difference; coNP, so smaller sweeps)"
    (List.map
       (fun n ->
         let f = random_cnf n (3 * n) in
         let s1 = Reductions.sws_of_sat f in
         let s2 = Reductions.sws_of_sat (Prop.simplify f) in
         ( Printf.sprintf "%d vars" n,
           measure (fun () -> ignore (Decision.pl_nr_equivalence s1 s2)) ))
       (if quick then [ 6; 10 ] else [ 6; 10; 14; 18 ]))

(* ------------------------------------------------------------------ *)
(* Table 1, row SWS(PL, PL): PSPACE via truth-vector exploration        *)
(* ------------------------------------------------------------------ *)

(* A family with genuinely exponential reachable vector sets: the AFA for
   "the k-th symbol from the end is 'a'" — its minimal DFA needs 2^k
   states, the textbook PSPACE-ish workload. *)
let kth_from_end_nfa k =
  (* states 0..k: 0 start, move on 'a' to 1, then any symbol advances *)
  let edges =
    (0, 0, 0) :: (0, 1, 0) :: (0, 0, 1)
    :: List.concat_map
         (fun i -> [ (i, 0, i + 1); (i, 1, i + 1) ])
         (List.init (k - 1) (fun i -> i + 1))
  in
  Nfa.create ~num_states:(k + 1) ~alphabet_size:2 ~starts:[ 0 ] ~finals:[ k ]
    ~edges ~eps_edges:[]

(* The eager baseline: full determinization of both NFAs, then emptiness
   of both DFA products. *)
let eager_equivalent a b =
  let da = Dfa.of_nfa a and db = Dfa.of_nfa b in
  Dfa.is_empty (Dfa.diff da db) && Dfa.is_empty (Dfa.diff db da)

let table1_pl_rec () =
  header "Table 1 / SWS(PL,PL): non-emptiness, validation, equivalence (all pspace-c)";
  let sizes = if quick then [ 4; 6 ] else [ 4; 6; 8; 10; 12 ] in
  series "non-emptiness via reachable truth vectors (k-th symbol from end family)"
    (List.map
       (fun k ->
         let sws = Reductions.sws_of_afa (Afa.of_nfa (kth_from_end_nfa k)) in
         ( Printf.sprintf "k = %d (DFA needs 2^%d states)" k k,
           measure (fun () -> ignore (Decision.pl_non_emptiness sws)) ))
       sizes);
  series "equivalence of two encodings (vector DFA product)"
    (List.map
       (fun k ->
         let a1 = Afa.of_nfa (kth_from_end_nfa k) in
         let s1 = Reductions.sws_of_afa a1 in
         ( Printf.sprintf "k = %d" k,
           measure (fun () -> ignore (Decision.pl_equivalence s1 s1)) ))
       (if quick then [ 4 ] else [ 4; 6; 8 ]))

(* ------------------------------------------------------------------ *)
(* Table 1, row SWS_nr(CQ, UCQ): PSPACE / NEXPTIME / coNEXPTIME         *)
(* ------------------------------------------------------------------ *)

(* Binary-tree services of depth d: the unfolding has exponentially many
   disjuncts in d. *)
let tree_service depth =
  let v = R.Term.var in
  let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body () in
  let phi = Sws_data.Q_cq (cq [ v "x" ] [ R.Atom.make Sws_data.in_rel [ v "x" ] ]) in
  let leaf =
    Sws_data.Q_cq
      (cq [ v "x"; v "y" ]
         [ R.Atom.make Sws_data.msg_rel [ v "x" ]; R.Atom.make "r" [ v "x"; v "y" ] ])
  in
  let union2 =
    Sws_data.Q_ucq
      (R.Ucq.make
         [
           cq [ v "x"; v "y" ] [ R.Atom.make "act1" [ v "x"; v "y" ] ];
           cq [ v "x"; v "y" ] [ R.Atom.make "act2" [ v "x"; v "y" ] ];
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
  Sws_data.make ~db_schema:(R.Schema.of_list [ ("r", 2) ]) ~in_arity:1
    ~out_arity:2 ~start:"n0" ~rules:(rules 0)

let table1_cq_nr () =
  header "Table 1 / SWS_nr(CQ,UCQ): non-empt. (pspace-c), valid. (nexptime-c), equiv. (conexptime-c)";
  let depths = if quick then [ 2; 4 ] else [ 2; 4; 6; 8 ] in
  series "non-emptiness (canonical databases over the unfolding)"
    (List.map
       (fun d ->
         let sws = tree_service d in
         ( Printf.sprintf "depth %d (2^%d leaves)" d d,
           measure (fun () -> ignore (Decision.cq_non_emptiness sws)) ))
       depths);
  series "equivalence (Klug containment of unfoldings)"
    (List.map
       (fun d ->
         let s = tree_service d in
         ( Printf.sprintf "depth %d" d,
           measure (fun () -> ignore (Decision.cq_equivalence s s)) ))
       (if quick then [ 1; 2 ] else [ 1; 2; 3 ]));
  series "validation (small-model search, singleton output)"
    (List.map
       (fun d ->
         let s = tree_service d in
         let o =
           R.Relation.singleton
             (R.Tuple.of_list [ R.Value.int 1; R.Value.int 2 ])
         in
         ( Printf.sprintf "depth %d" d,
           measure (fun () -> ignore (Decision.cq_validation s ~output:o)) ))
       (if quick then [ 1; 2 ] else [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* Table 1, row SWS(CQ, UCQ): EXPTIME-complete non-emptiness            *)
(* ------------------------------------------------------------------ *)

let table1_cq_rec () =
  header "Table 1 / SWS(CQ,UCQ): non-emptiness (exptime-c, via sirups), valid./equiv. undecidable";
  (* the unfolding has |E|^2 successors per level: two or three sizes are
     enough to exhibit the exponential wall the EXPTIME bound predicts *)
  let sizes = if quick then [ 2 ] else [ 2; 3 ] in
  series "non-emptiness of the sirup reduction (backward chaining, |succs| = |E|^2)"
    (List.map
       (fun num_nodes ->
         let i = R.Value.int in
         let edges =
           List.init num_nodes (fun k -> (i ((k + 1) mod num_nodes), i k))
         in
         let sws =
           Reductions.sws_of_sg_sirup ~edges ~seed:(i 0, i 0)
             ~goal:(i (num_nodes - 1), i (num_nodes - 1))
         in
         ( Printf.sprintf "%d nodes, %d edges" num_nodes (List.length edges),
           measure ~repeats:1 (fun () ->
               ignore
                 (Decision.cq_non_emptiness
                    ~budget:(Engine.Budget.of_depth (num_nodes + 1))
                    sws)) ))
       sizes);
  series "reference: bottom-up datalog on the same sirups (semi-naive)"
    (List.map
       (fun n ->
         let inst = Datalog.Sirup.same_generation rng ~num_nodes:n ~num_edges:(2 * n) in
         ( Printf.sprintf "%d nodes, %d edges" n (2 * n),
           measure (fun () -> ignore (Datalog.Sirup.accepts_with_edges inst)) ))
       (if quick then [ 8; 16 ] else [ 8; 16; 32; 64 ]))

(* ------------------------------------------------------------------ *)
(* Table 1, row SWS_nr(FO, FO): undecidable — bounded search blow-up    *)
(* ------------------------------------------------------------------ *)

let table1_fo () =
  header "Table 1 / SWS(FO,FO) rows: undecidable — bounded-model semi-procedure cost";
  let v = R.Term.var in
  let sentence k =
    (* "u has at least k elements": model search must reach domain size k *)
    let xs = List.init k (fun i -> Printf.sprintf "x%d" i) in
    let distinct =
      List.concat_map
        (fun i ->
          List.filter_map
            (fun j ->
              if i < j then
                Some (R.Fo.neq (v (List.nth xs i)) (v (List.nth xs j)))
              else None)
            (List.init k Fun.id))
        (List.init k Fun.id)
    in
    R.Fo.exists_many xs
      (R.Fo.conj (List.map (fun x -> R.Fo.atom "u" [ v x ]) xs @ distinct))
  in
  series "non-emptiness semi-procedure vs required model size"
    (List.map
       (fun k ->
         let svc =
           Reductions.sws_of_fo_sentence
             ~db_schema:(R.Schema.of_list [ ("u", 1) ])
             (sentence k)
         in
         ( Printf.sprintf "needs |model| >= %d" k,
           measure (fun () ->
               ignore (Decision.fo_non_emptiness ~max_dom:k ~max_pool:(k + 1) svc)) ))
       (if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ]))

(* ------------------------------------------------------------------ *)
(* Table 2: composition synthesis                                      *)
(* ------------------------------------------------------------------ *)

let nfa2 s = Nfa.of_regex ~alphabet_size:2 (Regex.parse s)

let table2_mdt_or () =
  header "Table 2 / MDT(∨) rows (Thm 5.3(1,2)): synthesis via regular rewriting";
  let sizes = if quick then [ 2; 4 ] else [ 2; 4; 8; 12 ] in
  series "goal (ab)^k over view ab: rewriting + exactness check"
    (List.map
       (fun k ->
         let goal = nfa2 (String.concat "" (List.init k (fun _ -> "ab"))) in
         ( Printf.sprintf "k = %d" k,
           measure (fun () ->
               ignore
                 (Compose.compose_nfa_or ~goal
                    ~components:
                      [ ("c_ab", nfa2 "ab"); ("c_a", nfa2 "a"); ("c_b", nfa2 "b") ]
                    ())) ))
       sizes);
  series "no-mediator goals (maximality certificates)"
    (List.map
       (fun k ->
         let goal =
           nfa2 (String.concat "" (List.init k (fun _ -> "ab")) ^ "a")
         in
         ( Printf.sprintf "k = %d" k,
           measure (fun () ->
               ignore
                 (Compose.compose_nfa_or ~goal ~components:[ ("c_ab", nfa2 "ab") ] ())) ))
       (if quick then [ 2 ] else [ 2; 4; 8 ]))

let table2_mdtb () =
  header "Table 2 / MDT_b(PL) rows (Thm 5.3(3)): bounded boolean-plan search";
  series "plan search vs invocation bound b (2 components)"
    (List.map
       (fun b ->
         let goal = nfa2 (String.concat "" (List.init b (fun _ -> "ab"))) in
         ( Printf.sprintf "b = %d" b,
           measure (fun () ->
               ignore
                 (Compose.compose_mdtb ~goal
                    ~components:[ ("c_ab", nfa2 "ab"); ("c_ba", nfa2 "ba") ]
                    ~budget:(Engine.Budget.of_depth b) ())) ))
       (if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ]));
  series "plan search vs number of components (bound 2)"
    (List.map
       (fun m ->
         let comps =
           List.init m (fun i -> (Printf.sprintf "c%d" i, nfa2 (if i = 0 then "ab" else "ba")))
         in
         ( Printf.sprintf "%d components" m,
           measure (fun () ->
               ignore
                 (Compose.compose_mdtb ~goal:(nfa2 "abba") ~components:comps
                    ~budget:(Engine.Budget.of_depth 2) ())) ))
       (if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ]))

let table2_cq () =
  header "Table 2 / CP(SWS_nr(CQ,UCQ), MDT_nr(UCQ), SWS_nr(CQ,UCQ)) (Thm 5.1(3)): view rewriting";
  let v = R.Term.var in
  let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body () in
  let chain_goal len =
    let atom i = R.Atom.make "e" [ v (Printf.sprintf "x%d" i); v (Printf.sprintf "x%d" (i + 1)) ] in
    R.Ucq.of_cq
      (cq [ v "x0"; v (Printf.sprintf "x%d" len) ] (List.init len atom))
  in
  let db_schema = R.Schema.of_list [ ("e", 2) ] in
  let view2 =
    ("v2", cq [ v "a"; v "c" ] [ R.Atom.make "e" [ v "a"; v "b" ]; R.Atom.make "e" [ v "b"; v "c" ] ])
  in
  let view1 = ("v1", cq [ v "a"; v "b" ] [ R.Atom.make "e" [ v "a"; v "b" ] ]) in
  series "equivalent rewriting of the 2k-chain goal over the 2-path view"
    (List.map
       (fun k ->
         ( Printf.sprintf "chain length %d" (2 * k),
           measure (fun () ->
               ignore
                 (Compose.compose_cq ~max_atoms:(k + 1) ~db_schema
                    ~components:[ view2 ] (chain_goal (2 * k)))) ))
       (if quick then [ 1; 2 ] else [ 1; 2; 3 ]));
  series "with a redundant extra view (bigger bucket)"
    (List.map
       (fun k ->
         ( Printf.sprintf "chain length %d, 2 views" (2 * k),
           measure (fun () ->
               ignore
                 (Compose.compose_cq ~max_atoms:(k + 1) ~db_schema
                    ~components:[ view2; view1 ] (chain_goal (2 * k)))) ))
       (if quick then [ 1 ] else [ 1; 2 ]))

let table2_prefix () =
  header "Table 2 / decidable PL cases (Thm 5.1(4,5)): k-prefix machinery";
  series "k-prefix bound computation vs goal size"
    (List.map
       (fun k ->
         let prefix = String.concat "" (List.init k (fun _ -> "ab")) in
         let dfa = Dfa.of_nfa (nfa2 (prefix ^ "(a|b)*")) in
         ( Printf.sprintf "k = %d" (2 * k),
           measure (fun () -> ignore (Compose.k_prefix_bound dfa)) ))
       (if quick then [ 2; 4 ] else [ 2; 4; 8; 16 ]))

let table2_uc2rpq () =
  header "Table 2 / Corollary 5.2: UC2RPQ composition in 2exptime (rewriting pipeline)";
  series "RPQ goal a^k over the single-step view"
    (List.map
       (fun k ->
         let goal = nfa2 (String.concat "" (List.init k (fun _ -> "a"))) in
         ( Printf.sprintf "path length %d" k,
           measure (fun () ->
               ignore
                 (Rewriting.Regex_rewrite.rewrite ~target:goal
                    ~views:[ nfa2 "a"; nfa2 "aa" ] ())) ))
       (if quick then [ 2; 4 ] else [ 2; 4; 8; 16 ]))

let table2_undecidable () =
  header "Table 2 / undecidable rows (Thm 5.1(1,2)): bounded search cost";
  let v = R.Term.var in
  let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body () in
  let db_schema = R.Schema.of_list [ ("e", 2) ] in
  let svc = Compose.query_service ~db_schema (cq [ v "x"; v "y" ] [ R.Atom.make "e" [ v "x"; v "y" ] ]) in
  series "bounded mediator search vs component count"
    (List.map
       (fun m ->
         let comps = List.init m (fun i -> (Printf.sprintf "c%d" i, svc)) in
         ( Printf.sprintf "%d components" m,
           measure (fun () ->
               ignore
                 (Compose.compose_bounded_search
                    ~budget:(Engine.Budget.of_nodes 20) ~db_schema ~goal:svc
                    ~components:comps ())) ))
       (if quick then [ 1; 2 ] else [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* Figure 1: FSA (sequential) vs SWS (parallel) travel service          *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  header "Figure 1: FSA-style sequential vs SWS parallel specification";
  let catalog n =
    let items = List.init n (fun i -> (i, 100 + (i mod 7))) in
    Travel.catalog_db ~airfares:items ~hotels:items ~tickets:items ~cars:items
  in
  let req = Travel.request ~air:[ 100 ] ~hotel:[ 101 ] ~ticket:[ 102 ] ~car:[ 103 ] () in
  let db = catalog 5 in
  let seq_tree = Sws_data.run_tree Travel.tau1_sequential db (Travel.session_sequential req) in
  let par_tree = Sws_data.run_tree Travel.tau1 db (Travel.session req) in
  row "execution-tree depth:    parallel %d vs sequential %d"
    (Sws_data.Run.tree_depth par_tree)
    (Sws_data.Run.tree_depth seq_tree);
  row "messages per session:    parallel %d vs sequential %d" 2 4;
  row "same outputs on this workload: %b"
    (R.Relation.equal
       (Travel.booked db req)
       (Travel.booked_sequential db req));
  let sizes = if quick then [ 4; 16 ] else [ 4; 16; 64; 128 ] in
  series "booking latency vs catalog size (parallel tau1)"
    (List.map
       (fun n ->
         let db = catalog n in
         (Printf.sprintf "%d items/category" n, measure (fun () -> ignore (Travel.booked db req))))
       sizes);
  series "booking latency vs catalog size (sequential variant)"
    (List.map
       (fun n ->
         let db = catalog n in
         ( Printf.sprintf "%d items/category" n,
           measure (fun () -> ignore (Travel.booked_sequential db req)) ))
       sizes);
  series "mediator pi1 (Example 5.1) on the same workload"
    (List.map
       (fun n ->
         let db = catalog n in
         ( Printf.sprintf "%d items/category" n,
           measure (fun () -> ignore (Travel.booked_via_mediator db req)) ))
       (if quick then [ 4 ] else [ 4; 16; 64 ]));
  (* the future-work extension: minimum-cost packages over a widening
     candidate space *)
  series "min-cost aggregation (future-work extension) vs candidate packages"
    (List.map
       (fun n ->
         let db = catalog n in
         let req =
           Travel.request ~air:[ 100; 101 ] ~hotel:[ 100; 101 ]
             ~ticket:[ 100; 101 ] ()
         in
         let candidates =
           R.Relation.cardinal (Travel.booked_priced db req)
         in
         ( Printf.sprintf "%d items (%d candidates)" n candidates,
           measure (fun () -> ignore (Travel.booked_min_cost db req)) ))
       (if quick then [ 4; 16 ] else [ 4; 16; 64 ]))

(* ------------------------------------------------------------------ *)
(* Ablation: join strategies (naive / greedy / indexed)                 *)
(* ------------------------------------------------------------------ *)

let line_graph_db n =
  List.fold_left
    (fun db i ->
      R.Database.add_tuple "e"
        (R.Tuple.of_list [ R.Value.int i; R.Value.int (i + 1) ])
        db)
    (R.Database.empty (R.Schema.of_list [ ("e", 2) ]))
    (List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Ablation: engine caches (incremental unfolding)                       *)
(* ------------------------------------------------------------------ *)

(* The unfolding memo, measured on the workload it was built for:
   iterative deepening over a binary-tree service, where depth-n
   re-derives every depth-(n-1) subtree, and the twin successors make the
   uncached tree exponential while the memo store collapses it.  Toggled
   with [Engine.set_caching], same code path otherwise; the stats
   counters confirm the hits are real. *)
let engine_cache_ablation () =
  header "Ablation: engine caches — incremental unfolding";
  let deepen sws d () =
    Unfold.clear_caches ();
    for n = 1 to d + 1 do
      ignore (Unfold.to_ucq sws ~n)
    done
  in
  let unfold_depths = if quick then [ 6; 8 ] else [ 6; 8; 10 ] in
  List.iter
    (fun d ->
      let sws = tree_service d in
      Engine.set_caching true;
      let cached = measure (deepen sws d) in
      Engine.set_caching false;
      let uncached = measure (deepen sws d) in
      Engine.set_caching true;
      let stats = Engine.Stats.create () in
      Unfold.clear_caches ();
      for n = 1 to d + 1 do
        ignore (Unfold.to_ucq ~stats sws ~n)
      done;
      row
        "unfolding, tree depth %2d (n = 1..%2d): cached %8.3f ms vs uncached %8.3f ms — %5.1fx (%d hits / %d misses)"
        d (d + 1) cached uncached (uncached /. cached)
        (Engine.Stats.unfold_cache_hits stats)
        (Engine.Stats.unfold_cache_misses stats))
    unfold_depths

(* ------------------------------------------------------------------ *)
(* Ablation: interned representation (DESIGN.md section 4e)             *)
(* ------------------------------------------------------------------ *)

(* The PR-1 CQ-evaluation and PR-2 subset-construction series, re-run so
   the report carries the representation gauges next to the timings: the
   [measure] counter deltas now include [interner_size] (distinct values
   hash-consed during the row) and [bitset_allocs] (state-set word arrays
   materialized).  The before/after reading against the pre-interning
   build lives in EXPERIMENTS.md; this section is the "after" artifact. *)
let representation_ablation () =
  header "Ablation: interned representation — packed tuples and bit-set state sets";
  (* Subset construction on the 2^k family: the workload that keys hash
     tables on whole state sets, where Bitset's cached hash and O(words)
     equality replace Set.Make(Int)'s per-element walk. *)
  let subset_ks = if quick then [ 8; 10 ] else [ 8; 10; 12; 14 ] in
  series "subset construction (k-th-symbol-from-end family)"
    (List.map
       (fun k ->
         let n = kth_from_end_nfa k in
         ( Printf.sprintf "k = %d (2^%d DFA states)" k k,
           measure (fun () -> ignore (Dfa.of_nfa n)) ))
       subset_ks);
  series "PL language equivalence (NFA vs itself, product of determinizations)"
    (List.map
       (fun k ->
         let n = kth_from_end_nfa k in
         ( Printf.sprintf "k = %d" k,
           measure (fun () -> ignore (eager_equivalent n n)) ))
       (if quick then [ 8 ] else [ 8; 10; 12 ]));
  (* The PR-1 join series under interned tuples: id-level probes against
     a line-graph family. *)
  let v = R.Term.var in
  let chain_q len =
    R.Cq.make
      ~head:[ v "x0"; v (Printf.sprintf "x%d" len) ]
      ~body:
        (List.init len (fun i ->
             R.Atom.make "e"
               [ v (Printf.sprintf "x%d" i); v (Printf.sprintf "x%d" (i + 1)) ]))
      ()
  in
  let q = chain_q 4 in
  series "4-chain CQ on interned tuples (largest line graphs)"
    (List.map
       (fun n ->
         let db = line_graph_db n in
         ( Printf.sprintf "%d edges, indexed" n,
           measure (fun () -> ignore (R.Cq.eval q db)) ))
       (if quick then [ 400 ] else [ 400; 1600 ]));
  row "process gauges: interner size %d values, bitset allocations %d"
    (R.Value.interner_size ())
    (Repr.Bitset.allocations ())

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                      *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablations";
  let v = R.Term.var in
  (* containment with <> *)
  let q1 =
    R.Cq.make ~head:[ v "x" ]
      ~body:[ R.Atom.make "e" [ v "x"; v "y" ]; R.Atom.make "e" [ v "y"; v "x" ] ]
      ()
  in
  let q2 =
    R.Cq.make
      ~neqs:[ (v "y", v "x") ]
      ~head:[ v "x" ]
      ~body:[ R.Atom.make "e" [ v "x"; v "y" ] ]
      ()
  in
  series "containment with <>: Klug partitions vs frozen-only (complete vs not)"
    [
      ("partitions (correct: false)", measure (fun () -> ignore (R.Cq.contained_in q1 q2)));
      ( "frozen-only (wrong: true)",
        measure (fun () -> ignore (R.Cq.contained_in_frozen_only q1 q2)) );
    ];
  row "frozen-only verdict %b vs partition verdict %b on the <> pair"
    (R.Cq.contained_in_frozen_only q1 q2)
    (R.Cq.contained_in q1 q2);
  (* FO evaluation: atom-driven all-solutions search vs the naive
     active-domain product *)
  let fig_db =
    let items = List.init 8 (fun i -> (i, 100 + (i mod 7))) in
    Travel.catalog_db ~airfares:items ~hotels:items ~tickets:items ~cars:items
  in
  let fig_req = Travel.request ~air:[ 100 ] ~hotel:[ 101 ] ~ticket:[ 102 ] () in
  let acts =
    (* materialize the four leaf registers as a database for psi0 *)
    let tree = Sws_data.run_tree Travel.tau1 fig_db (Travel.session fig_req) in
    let children = tree.Sws_data.Run.children in
    let schema =
      R.Schema.of_list (List.mapi (fun i _ -> (Sws_data.act_rel i, 4)) children)
    in
    List.fold_left
      (fun (db, i) (c : Sws_data.Run.node) ->
        (R.Database.set (Sws_data.act_rel i) c.Sws_data.Run.act db, i + 1))
      (R.Database.empty schema, 0)
      children
    |> fst
  in
  let psi0_query =
    match List.assoc "q0" (List.map (fun q -> (q, (Sws_def.rule (Sws_data.def Travel.tau1) q).Sws_def.synth)) [ "q0" ]) with
    | Sws_data.Q_fo q -> q
    | _ -> assert false
  in
  series "FO evaluation of psi0: atom-driven search vs naive domain product"
    [
      ("atom-driven", measure (fun () -> ignore (R.Fo.eval psi0_query acts)));
      ("naive", measure ~repeats:1 (fun () -> ignore (R.Fo.eval_naive psi0_query acts)));
    ];
  (* AFA emptiness: on-the-fly vector DFA vs full translation *)
  let afa = Afa.of_nfa (kth_from_end_nfa (if quick then 8 else 12)) in
  series "AFA emptiness: on-the-fly vector exploration vs full NFA translation"
    [
      ("on the fly", measure (fun () -> ignore (Afa.is_empty afa)));
      ( "via to_nfa + subset",
        measure (fun () -> ignore (Nfa.is_empty (Afa.to_nfa afa))) );
    ]

(* ------------------------------------------------------------------ *)
(* Tracing overhead: same workload with the sink absent vs installed    *)
(* ------------------------------------------------------------------ *)

(* The observability contract (DESIGN.md): with no session installed,
   [Obs.Trace.emit]/[span] are one ref read and a branch, so a traced
   build must run the decision procedures at parity.  This section times
   an identical PSPACE workload both ways and reports the relative
   overhead; EXPERIMENTS.md records the <= 5% acceptance line.  The
   enabled run's span histograms are what the JSON report exports. *)
let tracing_json = ref Obs.Json.Null
let histograms_json = ref Obs.Json.Null

let tracing_overhead () =
  header "Tracing overhead: event sink disabled vs enabled (same workload)";
  let k = if quick then 8 else 10 in
  let sws = Reductions.sws_of_afa (Afa.of_nfa (kth_from_end_nfa k)) in
  let workload () =
    ignore (Decision.pl_validation sws ~output:false);
    ignore (Decision.pl_non_emptiness sws)
  in
  workload () (* warm up allocators and minor heap before either arm *);
  let repeats = if quick then 5 else 9 in
  (* interleave the arms pairwise: with this workload in the seconds
     range, clock/GC drift across two back-to-back blocks would swamp
     the effect being measured *)
  let disabled = ref [] and enabled = ref [] and last = ref None in
  for _ = 1 to repeats do
    disabled := snd (time_ms workload) :: !disabled;
    let session = Obs.Trace.install () in
    enabled := snd (time_ms workload) :: !enabled;
    Obs.Trace.uninstall ();
    last := Some session
  done;
  let session = Option.get !last in
  let disabled_ms = median !disabled and enabled_ms = median !enabled in
  let overhead_pct = (enabled_ms -. disabled_ms) /. disabled_ms *. 100. in
  row "workload: pl_validation + pl_non_emptiness, k = %d, %d repeats" k
    repeats;
  row "tracing disabled: %8.3f ms   enabled: %8.3f ms   overhead: %+.1f%%"
    disabled_ms enabled_ms overhead_pct;
  row "events recorded per enabled run: %d (%d dropped)"
    (Obs.Trace.event_count session)
    (Obs.Trace.dropped session);
  let open Obs.Json in
  tracing_json :=
    Obj
      [ ("workload", String "pl_validation+pl_non_emptiness");
        ("k", Int k);
        ("repeats", Int repeats);
        ("disabled_ms", Float disabled_ms);
        ("enabled_ms", Float enabled_ms);
        ("overhead_pct", Float overhead_pct);
        ("events_per_run", Int (Obs.Trace.event_count session));
        ("dropped", Int (Obs.Trace.dropped session));
      ];
  histograms_json :=
    Obj
      (List.map
         (fun (name, h) -> (name, Obs.Trace.Hist.to_json h))
         (Obs.Trace.histograms session))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table / figure                    *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  header "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let open Toolkit in
  let t1_formula = random_cnf 20 60 in
  let t1 =
    Test.make ~name:"table1: SWS_nr(PL,PL) non-emptiness (20 vars)"
      (Staged.stage (fun () ->
           ignore (Decision.pl_nr_non_emptiness (Reductions.sws_of_sat t1_formula))))
  in
  let t2 =
    Test.make ~name:"table2: MDT(or) rewriting (goal (ab)^4)"
      (Staged.stage (fun () ->
           ignore
             (Compose.compose_nfa_or ~goal:(nfa2 "abababab")
                ~components:[ ("c_ab", nfa2 "ab") ] ())))
  in
  let fig_db =
    Travel.catalog_db
      ~airfares:[ (1, 100) ] ~hotels:[ (2, 101) ] ~tickets:[ (3, 102) ]
      ~cars:[ (4, 103) ]
  in
  let fig_req = Travel.request ~air:[ 100 ] ~hotel:[ 101 ] ~ticket:[ 102 ] () in
  let f1 =
    Test.make ~name:"figure1: travel booking (parallel tau1)"
      (Staged.stage (fun () -> ignore (Travel.booked fig_db fig_req)))
  in
  let test = Test.make_grouped ~name:"sws" [ t1; t2; f1 ] in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 256) ()
    in
    let raw_results = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    let results = Analyze.merge ols instances results in
    results
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun _instance tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Fmt.pr "  %-55s %12.1f ns/run@." name est
          | _ -> Fmt.pr "  %-55s (no estimate)@." name)
        tbl)
    results

(* ------------------------------------------------------------------ *)
(* Server load generator: bench -- server [--json BENCH_server.json]    *)
(* ------------------------------------------------------------------ *)

(* Boots an in-process swsd on a private Unix socket and drives it with
   concurrent client connections, each issuing a deterministic mix of
   requests: cheap pings, automata-backed [check]s, decisive or-mode
   compositions, and mdtb compositions under a one-node budget whose only
   possible outcome is a structured [exhausted] response.  The section
   reports throughput, tail latency and the budget-trip rate — the
   numbers CI uploads as BENCH_server.json. *)
module Server_bench = struct
  (* One request of the mix, keyed by the per-client sequence number so
     every run issues the identical workload. *)
  let issue client seq =
    match seq mod 4 with
    | 0 -> Server.Client.call client ~meth:"ping" ~params:[]
    | 1 ->
      Server.Client.call client ~meth:"check"
        ~params:[ ("service", Obs.Json.String "(ab)+c") ]
    | 2 ->
      Server.Client.call client ~meth:"compose"
        ~params:
          [ ("goal", Obs.Json.String "(ab)*");
            ( "components",
              Obs.Json.List [ Obs.Json.String "ab"; Obs.Json.String "ba" ] );
          ]
    | _ ->
      Server.Client.call client ~meth:"compose"
        ~params:
          [ ("goal", Obs.Json.String "(ab)*");
            ( "components",
              Obs.Json.List [ Obs.Json.String "ab"; Obs.Json.String "ba" ] );
            ("mode", Obs.Json.String "mdtb");
            ("budget", Obs.Json.Obj [ ("max_nodes", Obs.Json.Int 1) ]);
          ]

  type arm = {
    label : string;
    wall_ms : float;
    throughput : float;
    hist : Obs.Trace.Hist.t;  (** request latencies, ns *)
    ok : int;
    exhausted : int;
    errors : int;
    transport : int;
  }

  (* All four latency read-outs come from the same log-2 histogram
     ([Hist.quantile], upper-bound convention), so p50 <= p95 <= p99 <=
     max holds by construction — the monotonicity CI asserts. *)
  let q_ms hist p =
    float_of_int (Obs.Trace.Hist.quantile hist p) /. 1e6

  (* One full load-generation pass against a fresh daemon.  Every arm
     starts from cleared process-lifetime caches: without that, whichever
     arm runs second would serve L1/L2 hits the first arm paid to
     compute, and the metrics-on/off comparison would measure cache
     warmth instead of instrument overhead. *)
  let run_arm ~label ~metrics ~clients ~per_client =
    Engine.cache_clear_all ();
    let sock =
      Printf.sprintf "/tmp/swsd-bench-%d-%s.sock" (Unix.getpid ()) label
    in
    let cfg =
      Server.Daemon.default_config (Server.Protocol.Unix_sock sock)
    in
    let daemon =
      Server.Daemon.start { cfg with Server.Daemon.jobs = cli_jobs; metrics }
    in
    let ok = Atomic.make 0
    and errors = Atomic.make 0
    and exhausted = Atomic.make 0
    and transport = Atomic.make 0 in
    let lat_ns = Array.make_matrix clients per_client 0 in
    let client_thread c =
      let conn = Server.Client.connect (Server.Daemon.bound_addr daemon) in
      Fun.protect
        ~finally:(fun () -> Server.Client.close conn)
        (fun () ->
          for seq = 0 to per_client - 1 do
            let t0 = Obs.Clock.now_ns () in
            let r = issue conn seq in
            lat_ns.(c).(seq) <- Int64.to_int (Obs.Clock.elapsed_ns t0);
            match r with
            | Ok response -> (
              match Obs.Json.member "status" response with
              | Some (Obs.Json.String "ok") -> Atomic.incr ok
              | Some (Obs.Json.String "exhausted") -> Atomic.incr exhausted
              | _ -> Atomic.incr errors)
            | Error _ -> Atomic.incr transport
          done)
    in
    let t0 = Obs.Clock.now_ns () in
    let threads =
      List.init clients (fun c -> Thread.create client_thread c)
    in
    List.iter Thread.join threads;
    let wall_ms = Obs.Clock.ns_to_ms (Obs.Clock.elapsed_ns t0) in
    Server.Daemon.stop daemon;
    let hist = Obs.Trace.Hist.create () in
    Array.iter (Array.iter (Obs.Trace.Hist.observe hist)) lat_ns;
    let total = clients * per_client in
    {
      label;
      wall_ms;
      throughput = float_of_int total /. (wall_ms /. 1000.);
      hist;
      ok = Atomic.get ok;
      exhausted = Atomic.get exhausted;
      errors = Atomic.get errors;
      transport = Atomic.get transport;
    }

  let arm_json a =
    let open Obs.Json in
    Obj
      [ ("wall_ms", Float a.wall_ms);
        ("throughput_rps", Float a.throughput);
        ( "latency_ms",
          Obj
            [ ("p50", Float (q_ms a.hist 0.50));
              ("p95", Float (q_ms a.hist 0.95));
              ("p99", Float (q_ms a.hist 0.99));
              ("max", Float (q_ms a.hist 1.0));
            ] );
      ]

  let print_arm a =
    row "%-11s %8.0f req/s   p50 %.3f ms   p95 %.3f ms   p99 %.3f ms   max %.3f ms"
      a.label a.throughput (q_ms a.hist 0.50) (q_ms a.hist 0.95)
      (q_ms a.hist 0.99) (q_ms a.hist 1.0)

  (* Sum several passes of one arm into a single read-out: wall times
     add, histograms merge, so the aggregate throughput/percentiles are
     exactly those of the concatenated run. *)
  let sum_arms label = function
    | [] -> invalid_arg "sum_arms: no passes"
    | first :: rest ->
      List.fold_left
        (fun acc a ->
          {
            label;
            wall_ms = acc.wall_ms +. a.wall_ms;
            throughput = 0.;
            hist = Obs.Trace.Hist.merge acc.hist a.hist;
            ok = acc.ok + a.ok;
            exhausted = acc.exhausted + a.exhausted;
            errors = acc.errors + a.errors;
            transport = acc.transport + a.transport;
          })
        { first with label; throughput = 0. }
        rest
      |> fun a ->
      let total = a.ok + a.exhausted + a.errors + a.transport in
      { a with throughput = float_of_int total /. (a.wall_ms /. 1000.) }

  let run () =
    header "Server load: concurrent sessions against an in-process swsd";
    let clients = if quick then 4 else 8 in
    let per_client = if quick then 50 else 200 in
    let rounds = if quick then 3 else 5 in
    (* unrecorded warm-up: boots the pool, warms allocators and interners
       so neither measured arm pays first-run costs *)
    ignore
      (run_arm ~label:"warmup" ~metrics:true ~clients
         ~per_client:(max 5 (per_client / 10)));
    (* The arms are interleaved pairwise, like the tracing-overhead
       bench: on a seconds-scale workload two back-to-back blocks
       measure machine drift, not the instruments. *)
    let offs, ons =
      List.init rounds (fun r ->
          let off =
            run_arm
              ~label:(Printf.sprintf "metrics-off-%d" r)
              ~metrics:false ~clients ~per_client
          in
          let on =
            run_arm
              ~label:(Printf.sprintf "metrics-on-%d" r)
              ~metrics:true ~clients ~per_client
          in
          (off, on))
      |> List.split
    in
    let off = sum_arms "metrics-off" offs in
    let on = sum_arms "metrics-on" ons in
    (* the arms flip the process-wide switch; leave it in the default *)
    Obs.Metrics.set_enabled true;
    let total = rounds * clients * per_client in
    let trip_rate = float_of_int on.exhausted /. float_of_int total in
    let overhead_pct =
      if off.throughput <= 0. then 0.
      else (off.throughput -. on.throughput) /. off.throughput *. 100.
    in
    row "%d rounds x %d clients x %d requests on %d jobs (arms interleaved)"
      rounds clients per_client (Par.Pool.jobs ());
    print_arm off;
    print_arm on;
    row "metrics overhead: %+.1f%% throughput (acceptance line: <= 5%%)"
      overhead_pct;
    row "statuses (metrics-on): ok %d   exhausted %d (trip rate %.3f)   error %d   transport %d"
      on.ok on.exhausted trip_rate on.errors on.transport;
    let report =
      let open Obs.Json in
      Obj
        [ ("schema_version", Int 2);
          ("suite", String "swsd-bench");
          ("mode", String (if quick then "quick" else "full"));
          ("jobs", Int (Par.Pool.jobs ()));
          ("clients", Int clients);
          ("rounds", Int rounds);
          ("requests", Int total);
          (* headline fields report the production configuration — the
             metrics-on arm *)
          ("wall_ms", Float on.wall_ms);
          ("throughput_rps", Float on.throughput);
          ( "latency_ms",
            Obj
              [ ("p50", Float (q_ms on.hist 0.50));
                ("p95", Float (q_ms on.hist 0.95));
                ("p99", Float (q_ms on.hist 0.99));
                ("max", Float (q_ms on.hist 1.0));
              ] );
          ("budget_trip_rate", Float trip_rate);
          ( "statuses",
            Obj
              [ ("ok", Int on.ok);
                ("exhausted", Int on.exhausted);
                ("error", Int on.errors);
                ("transport", Int on.transport);
              ] );
          ( "metrics",
            Obj
              [ ("off", arm_json off);
                ("on", arm_json on);
                ("overhead_pct", Float overhead_pct);
                ("within_5pct", Bool (overhead_pct <= 5.0));
              ] );
        ]
    in
    let path = Option.value ~default:"BENCH_server.json" json_path in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Obs.Json.to_channel oc report);
    Fmt.pr "@.report: %s@." path
end

(* ------------------------------------------------------------------ *)
(* Cache ablation: bench -- cache [--json BENCH_cache.json]            *)
(* ------------------------------------------------------------------ *)

(* Replays one deterministic cross-layer workload — decision procedures,
   or-mode / bounded / CQ compositions — against the process-lifetime
   memo store in three regimes: cold (stores just cleared), warm (the
   identical second pass), and invalidated (stores cleared again, the
   effect a stamp advance has on the affected class).  Hit rates come
   from the per-class gauge deltas.  The cache-off arm re-runs the same
   calls under [Engine.set_caching false] and compares outcome digests:
   the "caching never changes answers" contract, measured rather than
   assumed.  A final segment drives an in-process swsd so the reply
   caches show up in the same report: an L1 hit on a repeated request, the
   L1 invalidation a re-register's epoch bump forces, and a cross-session
   L2 hit on content-equal requests from a fresh connection.  CI uploads
   the result as BENCH_cache.json. *)
module Cache_bench = struct
  let digest_outcome = function
    | Decision.Yes _ -> "Y"
    | Decision.No -> "N"
    | Decision.Exhausted _ -> "X"

  let digest_equiv = function
    | Decision.Equivalent -> "E"
    | Decision.Inequivalent _ -> "I"
    | Decision.Equiv_exhausted _ -> "X"

  let gauge_rate delta =
    let total =
      List.fold_left
        (fun acc (_, g) -> Cache.Store.Gauges.add acc g)
        Cache.Store.Gauges.zero delta
    in
    let h = total.Cache.Store.Gauges.hits
    and m = total.Cache.Store.Gauges.misses in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

  (* One request, with [meta] so the response carries [meta.cache.source]
     — how the server answered: "miss", "l1", "l2" or "off". *)
  let call_source conn ~meth ~params =
    match Server.Client.call ~want_meta:true conn ~meth ~params with
    | Error e -> failwith ("cache bench: transport error: " ^ e)
    | Ok r -> (
      match
        Option.bind (Obs.Json.member "meta" r) (fun m ->
            Option.bind (Obs.Json.member "cache" m) (Obs.Json.member "source"))
      with
      | Some (Obs.Json.String s) -> (s, r)
      | _ -> ("absent", r))

  let server_segment () =
    let sock = Printf.sprintf "/tmp/swsd-cachebench-%d.sock" (Unix.getpid ()) in
    let cfg = Server.Daemon.default_config (Server.Protocol.Unix_sock sock) in
    let daemon =
      Server.Daemon.start { cfg with Server.Daemon.jobs = cli_jobs }
    in
    Fun.protect
      ~finally:(fun () -> Server.Daemon.stop daemon)
      (fun () ->
        let before = Engine.cache_snapshot () in
        let conn = Server.Client.connect (Server.Daemon.bound_addr daemon) in
        let compose_params =
          [ ("goal", Obs.Json.String "(ab)*");
            ( "components",
              Obs.Json.List
                [ Obs.Json.Obj [ ("ref", Obs.Json.String "v") ];
                  Obs.Json.String "ba";
                ] );
          ]
        in
        let registered =
          match
            Server.Client.call conn ~meth:"register"
              ~params:
                [ ("name", Obs.Json.String "v"); ("spec", Obs.Json.String "ab") ]
          with
          | Ok r -> (
            match Obs.Json.member "status" r with
            | Some (Obs.Json.String "ok") -> true
            | _ -> false)
          | Error _ -> false
        in
        if not registered then failwith "cache bench: register failed";
        let s1, _ = call_source conn ~meth:"compose" ~params:compose_params in
        let s2, r2 = call_source conn ~meth:"compose" ~params:compose_params in
        (* the epoch bump: re-registering [v] under a different spec must
           invalidate the L1 reply cached above, and the recomputed answer
           must reflect the new registry *)
        ignore
          (Server.Client.call conn ~meth:"register"
             ~params:
               [ ("name", Obs.Json.String "v");
                 ("spec", Obs.Json.String "aba");
               ]);
        let s3, r3 = call_source conn ~meth:"compose" ~params:compose_params in
        Server.Client.close conn;
        (* content-equal inline request from a brand-new session: its L1
           key (keyed by sid) misses, the content-resolved L2 key hits *)
        let check_params = [ ("service", Obs.Json.String "(ab)+c") ] in
        let conn2 = Server.Client.connect (Server.Daemon.bound_addr daemon) in
        let _ = call_source conn2 ~meth:"check" ~params:check_params in
        Server.Client.close conn2;
        let conn3 = Server.Client.connect (Server.Daemon.bound_addr daemon) in
        let s5, _ = call_source conn3 ~meth:"check" ~params:check_params in
        Server.Client.close conn3;
        let delta =
          Engine.cache_snapshot_delta ~before (Engine.cache_snapshot ())
        in
        let strip_envelope r =
          (* drop the per-request fields; what must (or must not) be equal
             is the payload *)
          match r with
          | Obs.Json.Obj kvs ->
            Obs.Json.Obj
              (List.filter
                 (fun (k, _) -> k <> "trace_id" && k <> "meta" && k <> "id")
                 kvs)
          | j -> j
        in
        let l1_warm_hit = String.equal s2 "l1" in
        let invalidated_recomputes =
          (not (String.equal s3 "l1"))
          && not
               (String.equal
                  (Obs.Json.to_string (strip_envelope r2))
                  (Obs.Json.to_string (strip_envelope r3)))
        in
        let l2_cross_session_hit = String.equal s5 "l2" in
        row "reply cache: repeat %s, after re-register %s, cross-session %s"
          s2 s3 s5;
        row
          "L1 warm hit %b, epoch bump recomputes %b, L2 cross-session hit %b"
          l1_warm_hit invalidated_recomputes l2_cross_session_hit;
        ( (s1, s2, s3, s5),
          l1_warm_hit,
          invalidated_recomputes,
          l2_cross_session_hit,
          delta ))

  let run () =
    header
      "Cache ablation: cold vs warm vs invalidated (process-lifetime memo store)";
    (* instances built once, so every pass issues the identical calls *)
    let sat_sws = Reductions.sws_of_sat (random_cnf 14 42) in
    let pl_small = Reductions.sws_of_afa (Afa.of_nfa (kth_from_end_nfa 8)) in
    let pl_big =
      Reductions.sws_of_afa (Afa.of_nfa (kth_from_end_nfa (if quick then 9 else 11)))
    in
    let tree_small = tree_service 2 and tree_big = tree_service 4 in
    let or_goal = nfa2 "abababab" in
    let or_comps = [ ("c_ab", nfa2 "ab"); ("c_a", nfa2 "a"); ("c_b", nfa2 "b") ] in
    let mdtb_goal = nfa2 "abba" in
    let mdtb_comps = [ ("c_ab", nfa2 "ab"); ("c_ba", nfa2 "ba") ] in
    let v = R.Term.var in
    let cqm head body = R.Cq.make ~head ~body () in
    let cq_schema = R.Schema.of_list [ ("e", 2) ] in
    let cq_view =
      ( "v2",
        cqm [ v "a"; v "c" ]
          [ R.Atom.make "e" [ v "a"; v "b" ]; R.Atom.make "e" [ v "b"; v "c" ] ]
      )
    in
    let cq_goal =
      R.Ucq.of_cq
        (cqm
           [ v "x0"; v "x4" ]
           (List.init 4 (fun i ->
                R.Atom.make "e"
                  [ v (Printf.sprintf "x%d" i);
                    v (Printf.sprintf "x%d" (i + 1));
                  ])))
    in
    let workload () =
      let b = Buffer.create 64 in
      let add s = Buffer.add_string b s in
      add (digest_outcome (Decision.pl_nr_non_emptiness sat_sws));
      add (digest_outcome (Decision.pl_non_emptiness pl_small));
      add (digest_outcome (Decision.pl_non_emptiness pl_big));
      add (digest_outcome (Decision.pl_validation pl_small ~output:false));
      add (digest_equiv (Decision.pl_equivalence pl_small pl_small));
      add (digest_outcome (Decision.cq_non_emptiness tree_big));
      add (digest_equiv (Decision.cq_equivalence tree_small tree_small));
      add
        (match Compose.compose_nfa_or ~goal:or_goal ~components:or_comps () with
        | Some c -> if c.Compose.exact then "Ce" else "Cm"
        | None -> "C0");
      add
        (match
           Compose.compose_mdtb ~goal:mdtb_goal ~components:mdtb_comps
             ~budget:(Engine.Budget.of_depth 2) ()
         with
        | Compose.Found _ -> "F"
        | Compose.No_mediator_within_bound _ -> "W");
      add
        (match
           Compose.compose_cq ~max_atoms:3 ~db_schema:cq_schema
             ~components:[ cq_view ] cq_goal
         with
        | Compose.Cq_composed _ -> "Q"
        | Compose.Cq_only_contained _ -> "q"
        | Compose.Cq_no_mediator -> "0");
      Buffer.contents b
    in
    let repeats = if quick then 3 else 5 in
    (* each run notes its own gauge delta; per-pass rates are read off the
       last run (the deltas repeat — the workload is deterministic) *)
    let timed_runs prep =
      List.init repeats (fun _ ->
          prep ();
          let before = Engine.cache_snapshot () in
          let digest, ms = time_ms workload in
          let delta =
            Engine.cache_snapshot_delta ~before (Engine.cache_snapshot ())
          in
          (digest, ms, delta))
    in
    let last3 runs =
      match List.rev runs with
      | (digest, _, delta) :: _ -> (digest, delta)
      | [] -> assert false
    in
    let pass_ms runs = median (List.map (fun (_, ms, _) -> ms) runs) in
    let cold_runs = timed_runs Engine.cache_clear_all in
    (* the last cold run left every store primed: warm passes replay on hits *)
    let warm_runs = timed_runs (fun () -> ()) in
    let inval_runs = timed_runs Engine.cache_clear_all in
    let cold_ms = pass_ms cold_runs
    and warm_ms = pass_ms warm_runs
    and inval_ms = pass_ms inval_runs in
    let digest0, cold_delta = last3 cold_runs in
    let _, warm_delta = last3 warm_runs in
    let _, inval_delta = last3 inval_runs in
    let cold_rate = gauge_rate cold_delta
    and warm_rate = gauge_rate warm_delta
    and inval_rate = gauge_rate inval_delta in
    let speedup = if warm_ms > 0. then cold_ms /. warm_ms else 0. in
    let digests_stable =
      List.for_all
        (fun (d, _, _) -> String.equal d digest0)
        (cold_runs @ warm_runs @ inval_runs)
    in
    (* the contract arm: identical calls, caching globally off *)
    Engine.set_caching false;
    let off_digest, off_ms = time_ms workload in
    Engine.set_caching true;
    let cache_off_equal = String.equal off_digest digest0 in
    row "workload: %d procedures per pass, %d repeats per regime" 10 repeats;
    row "cold        %10.3f ms   hit rate %5.3f" cold_ms cold_rate;
    row "warm        %10.3f ms   hit rate %5.3f   speedup %5.1fx" warm_ms
      warm_rate speedup;
    row "invalidated %10.3f ms   hit rate %5.3f" inval_ms inval_rate;
    row "cache off   %10.3f ms   outcomes equal to cache on: %b" off_ms
      cache_off_equal;
    row "outcome digests stable across every pass: %b" digests_stable;
    let ( (srv_s1, srv_s2, srv_s3, srv_s5),
          l1_warm_hit,
          invalidated_recomputes,
          l2_cross_session_hit,
          server_delta ) =
      server_segment ()
    in
    let report =
      let open Obs.Json in
      let pass ms rate delta extra =
        Obj
          ([ ("median_ms", Float ms);
             ("hit_rate", Float rate);
             ("classes", Engine.cache_gauges_json delta);
           ]
          @ extra)
      in
      Obj
        [ ("schema_version", Int 1);
          ("suite", String "sws-cache-bench");
          ("mode", String (if quick then "quick" else "full"));
          ("jobs", Int (Par.Pool.jobs ()));
          ("repeats", Int repeats);
          ( "passes",
            Obj
              [ ("cold", pass cold_ms cold_rate cold_delta []);
                ( "warm",
                  pass warm_ms warm_rate warm_delta
                    [ ("speedup_vs_cold", Float speedup) ] );
                ("invalidated", pass inval_ms inval_rate inval_delta []);
              ] );
          ("warm_hit_rate", Float warm_rate);
          ("warm_speedup", Float speedup);
          ("cache_off_median_ms", Float off_ms);
          ("cache_off_equal", Bool cache_off_equal);
          ("digests_stable", Bool digests_stable);
          ( "server",
            Obj
              [ ( "sources",
                  Obj
                    [ ("first", String srv_s1);
                      ("repeat", String srv_s2);
                      ("after_reregister", String srv_s3);
                      ("cross_session", String srv_s5);
                    ] );
                ("l1_warm_hit", Bool l1_warm_hit);
                ("epoch_bump_recomputes", Bool invalidated_recomputes);
                ("l2_cross_session_hit", Bool l2_cross_session_hit);
                ("reply_classes", Engine.cache_gauges_json server_delta);
              ] );
        ]
    in
    let path = Option.value ~default:"BENCH_cache.json" json_path in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Obs.Json.to_channel oc report);
    Fmt.pr "@.report: %s@." path
end

(* ------------------------------------------------------------------ *)
(* Antichain-vs-eager language-engine ablation ("antichain" mode)       *)
(* ------------------------------------------------------------------ *)

(* The k-chain family ("k-th symbol from the end is 'a'", minimal DFA
   2^k states) is exactly where eager determinization walls out and the
   lazy antichain product should not.  The sweep raises k per strategy
   until a run blows the per-run wall budget; the largest k that still
   fits is that strategy's wall.  Verdict agreement is checked at every
   k where both arms are still alive: the equivalent pair (chain vs its
   self-union) must come back [true] from both, the inequivalent pair
   (k vs k+1 chains) [false], and the distinguishing words must have
   equal length (both engines promise shortest witnesses). *)
module Antichain_bench = struct
  module Lang = Automata.Lang

  let cap_ms = if quick then 750. else 1500.
  let repeats = if quick then 1 else 3
  let k_max = if quick then 18 else 22

  let eq_pair k =
    let n = kth_from_end_nfa k in
    (n, Nfa.union n n)

  let neq_pair k = (kth_from_end_nfa k, kth_from_end_nfa (k + 1))

  let decide strategy (a, b) =
    match strategy with
    | `Eager -> eager_equivalent a b
    | `Antichain -> Lang.equivalent a b

  let label = function `Eager -> "eager" | `Antichain -> "antichain"

  let cex_len strategy (a, b) =
    match strategy with
    | `Eager ->
      Option.map List.length
        (Dfa.shortest_word (Dfa.diff (Dfa.of_nfa b) (Dfa.of_nfa a)))
    | `Antichain -> Option.map List.length (Lang.contains_cex a b)

  let run () =
    let ks = List.init (k_max - 3) (fun i -> i + 4) in
    let walled = Hashtbl.create 2 in
    let results = Hashtbl.create 2 (* strategy -> (k, median_ms) list rev *) in
    let verdicts_equal = ref true in
    let strategies = [ `Eager; `Antichain ] in
    List.iter (fun s -> Hashtbl.replace results s []) strategies;
    header "language engines on the k-chain family (equivalence, chain vs self-union)";
    List.iter
      (fun k ->
        let pair = eq_pair k in
        let alive s = not (Hashtbl.mem walled s) in
        (* verdict agreement while both arms are still tractable *)
        if List.for_all alive strategies then begin
          let eq_ok =
            List.for_all (fun s -> decide s pair) strategies
          and neq_ok =
            List.for_all (fun s -> not (decide s (neq_pair k))) strategies
          and cex_ok =
            let lens = List.map (fun s -> cex_len s (neq_pair k)) strategies in
            match lens with
            | [ Some l1; Some l2 ] -> l1 = l2
            | _ -> false
          in
          if not (eq_ok && neq_ok && cex_ok) then begin
            verdicts_equal := false;
            row "DISAGREEMENT at k = %d (eq %b, neq %b, cex %b)" k eq_ok
              neq_ok cex_ok
          end
        end;
        List.iter
          (fun s ->
            if alive s then begin
              let ms =
                median
                  (List.init repeats (fun _ ->
                       snd (time_ms (fun () -> ignore (decide s pair)))))
              in
              Hashtbl.replace results s ((k, ms) :: Hashtbl.find results s);
              row "%-9s k = %2d   %10.3f ms%s"
                (label s)
                k ms
                (if ms > cap_ms then "   (wall: over budget, stopping)"
                 else "");
              if ms > cap_ms then Hashtbl.replace walled s ()
            end)
          strategies)
      ks;
    (* the wall = largest k whose median fit under the budget *)
    let k_wall s =
      match Hashtbl.find results s with
      | [] -> 0
      | (k, ms) :: rest -> if ms > cap_ms then (match rest with
          | (k', _) :: _ -> k'
          | [] -> 0)
        else k
    in
    let eager_wall = k_wall `Eager and anti_wall = k_wall `Antichain in
    row "verdicts equal on every compared instance: %b" !verdicts_equal;
    row "k wall (largest k under %.0f ms): eager %d, antichain %d" cap_ms
      eager_wall anti_wall;
    let report =
      let open Obs.Json in
      let series s =
        List
          (List.rev_map
             (fun (k, ms) ->
               Obj [ ("k", Int k); ("median_ms", Float ms) ])
             (Hashtbl.find results s))
      in
      Obj
        [ ("schema_version", Int 1);
          ("suite", String "sws-antichain-bench");
          ("mode", String (if quick then "quick" else "full"));
          ("jobs", Int (Par.Pool.jobs ()));
          ("family", String "kth-symbol-from-end chain, equivalence vs self-union");
          ("per_run_cap_ms", Float cap_ms);
          ("repeats", Int repeats);
          ("verdicts_equal", Bool !verdicts_equal);
          ( "k_wall",
            Obj [ ("eager", Int eager_wall); ("antichain", Int anti_wall) ] );
          ( "series",
            Obj
              [ ("eager", series `Eager); ("antichain", series `Antichain) ]
          );
          ( "gauges",
            Obj
              [ ( "lang_states_explored",
                  Int (Lang.states_explored_total ()) );
                ("lang_antichain_peak", Int (Lang.antichain_peak ()));
                ( "lang_subsumption_prunes",
                  Int (Lang.subsumption_prunes_total ()) );
              ] );
        ]
    in
    let path = Option.value ~default:"BENCH_antichain.json" json_path in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Obs.Json.to_channel oc report);
    Fmt.pr "@.report: %s@." path
end

(* ------------------------------------------------------------------ *)
(* Warm starts: bench -- snapshot [--json BENCH_snapshot.json]         *)
(* ------------------------------------------------------------------ *)

(* Cold start (tokenize the textual form, intern every value, build the
   relation tuple by tuple) against warm start (Snapshot.load of the
   binary form: digest check, bulk re-intern, one-pass of_packed
   rebuild) across ascending instance sizes.  The headline is the
   warm/cold startup ratio on the largest instance, plus the snapshot's
   write time and file size and the first-request latency on each arm.

   Methodology caveats, also recorded in the report: the warm arm runs
   in the same process as the cold arm, so its re-interning hits
   already-present symbol-table entries instead of paying fresh inserts
   — slightly flattering on the SYMS section, irrelevant to the
   dominant RELS rebuild.  The true process-restart path is exercised
   end to end by the CI smoke (snapshot, restart swsd, warm L2 hit).
   Value namespaces are distinct per (size, repeat) so every cold parse
   interns genuinely-new strings even though the process-wide interner
   never shrinks. *)
module Snapshot_bench = struct
  let arity = 3
  let sizes = if quick then [ 2_000; 10_000; 50_000 ] else [ 10_000; 50_000; 200_000 ]
  let repeats = if quick then 3 else 5

  (* The textual form: one row per line, values separated by '|'.  Built
     with Buffer only — no Value.str, no interning — so the timed cold
     arm pays the full first-touch cost.  Values repeat across rows
     (universe of ~rows/4 distinct strings, the usual catalog shape):
     the text form spells every occurrence out and the cold arm hashes
     each one, while the binary form stores each string once and rows
     as id triples — the asymmetry warm starts exploit.  The first two
     columns are the base-u digits of the row index, so tuples stay
     pairwise distinct. *)
  let gen_text ~ns ~rows =
    let u = max 64 (rows / 4) in
    let b = Buffer.create (rows * 24 * arity) in
    for i = 0 to rows - 1 do
      for c = 0 to arity - 1 do
        if c > 0 then Buffer.add_char b '|';
        Buffer.add_string b ns;
        Buffer.add_char b ':';
        let v =
          match c with
          | 0 -> i mod u
          | 1 -> i / u mod u
          | _ -> i * 7919 mod u
        in
        Buffer.add_string b (string_of_int v)
      done;
      Buffer.add_char b '\n'
    done;
    Buffer.contents b

  (* The cold arm: what a fresh process does with the text — split,
     intern each token, add tuple by tuple. *)
  let parse_text text =
    let rel = ref (R.Relation.empty arity) in
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           if line <> "" then
             let vs = String.split_on_char '|' line in
             rel :=
               R.Relation.add
                 (R.Tuple.of_list (List.map R.Value.str vs))
                 !rel);
    !rel

  (* The first request either arm serves: a projection + scan checksum,
     touching every tuple the way a CQ join's outer scan does. *)
  let first_request rel =
    let proj = R.Relation.project [ 0; 2 ] rel in
    let sum =
      R.Relation.fold_interned
        (fun it acc -> acc + Repr.Ituple.hash it)
        rel 0
    in
    (R.Relation.cardinal proj, sum land max_int)

  type row = {
    rows : int;
    cold_ms : float;
    warm_ms : float;
    save_ms : float;
    bytes : int;
    req_cold_ms : float;
    req_warm_ms : float;
    equal_ok : bool;
  }

  let run_instance ~size =
    let samples =
      List.init repeats (fun r ->
          let ns = Printf.sprintf "s%d-r%d" size r in
          let text = gen_text ~ns ~rows:size in
          let rel_cold, cold_ms = time_ms (fun () -> parse_text text) in
          let path =
            Filename.temp_file "sws-snap-bench" ".snap"
          in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              let saved, save_ms =
                time_ms (fun () ->
                    Snapshot.save ~relations:[ ("bench", rel_cold) ]
                      ~caches:false ~path ())
              in
              let bytes =
                match saved with
                | Ok info -> info.Snapshot.i_bytes
                | Error m -> failwith ("snapshot save: " ^ m)
              in
              let loaded, warm_ms =
                time_ms (fun () -> Snapshot.load ~path)
              in
              let rel_warm =
                match loaded with
                | Ok (_, c) -> List.assoc "bench" c.Snapshot.c_relations
                | Error m -> failwith ("snapshot load: " ^ m)
              in
              let ans_cold, req_cold_ms =
                time_ms (fun () -> first_request rel_cold)
              in
              let ans_warm, req_warm_ms =
                time_ms (fun () -> first_request rel_warm)
              in
              let equal_ok =
                R.Relation.equal rel_cold rel_warm && ans_cold = ans_warm
              in
              { rows = size; cold_ms; warm_ms; save_ms; bytes;
                req_cold_ms; req_warm_ms; equal_ok }))
    in
    let med f = median (List.map f samples) in
    {
      rows = size;
      cold_ms = med (fun s -> s.cold_ms);
      warm_ms = med (fun s -> s.warm_ms);
      save_ms = med (fun s -> s.save_ms);
      bytes = (List.hd samples).bytes;
      req_cold_ms = med (fun s -> s.req_cold_ms);
      req_warm_ms = med (fun s -> s.req_warm_ms);
      equal_ok = List.for_all (fun s -> s.equal_ok) samples;
    }

  let run () =
    header "cold (parse + intern) vs warm (snapshot reload) startup";
    let rows = List.map (fun size -> run_instance ~size) sizes in
    List.iter
      (fun r ->
        row
          "%7d rows   cold %8.2f ms   warm %8.2f ms   ratio %5.3f   save %7.2f ms   %8d bytes   req %6.3f/%6.3f ms   equal %b"
          r.rows r.cold_ms r.warm_ms
          (r.warm_ms /. r.cold_ms)
          r.save_ms r.bytes r.req_cold_ms r.req_warm_ms r.equal_ok)
      rows;
    let largest = List.nth rows (List.length rows - 1) in
    let all_equal = List.for_all (fun r -> r.equal_ok) rows in
    row "largest instance warm/cold ratio: %.3f (want < 1)"
      (largest.warm_ms /. largest.cold_ms);
    row "reload answers equal on every instance: %b" all_equal;
    let report =
      let open Obs.Json in
      Obj
        [
          ("schema_version", Int 1);
          ("suite", String "sws-snapshot-bench");
          ("mode", String (if quick then "quick" else "full"));
          ("jobs", Int (Par.Pool.jobs ()));
          ("arity", Int arity);
          ("repeats", Int repeats);
          ( "instances",
            List
              (List.map
                 (fun r ->
                   Obj
                     [
                       ("rows", Int r.rows);
                       ("cold_parse_ms", Float r.cold_ms);
                       ("warm_load_ms", Float r.warm_ms);
                       ("warm_cold_ratio", Float (r.warm_ms /. r.cold_ms));
                       ("save_ms", Float r.save_ms);
                       ("snapshot_bytes", Int r.bytes);
                       ("first_request_cold_ms", Float r.req_cold_ms);
                       ("first_request_warm_ms", Float r.req_warm_ms);
                       ("answers_equal", Bool r.equal_ok);
                     ])
                 rows) );
          ( "largest",
            Obj
              [
                ("rows", Int largest.rows);
                ("warm_cold_ratio", Float (largest.warm_ms /. largest.cold_ms));
              ] );
          ("reload_answers_equal", Bool all_equal);
          ( "methodology",
            String
              "same-process warm arm: re-interning hits existing symtab \
               entries (true process restart is exercised by the CI smoke); \
               distinct value namespaces per (size, repeat) keep every cold \
               parse first-touch" );
        ]
    in
    let path = Option.value ~default:"BENCH_snapshot.json" json_path in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Obs.Json.to_channel oc report);
    Fmt.pr "@.report: %s@." path
end

let server_mode =
  Array.exists (String.equal "server") Sys.argv
  || Array.exists (String.equal "--server") Sys.argv

let cache_mode =
  Array.exists (String.equal "cache") Sys.argv
  || Array.exists (String.equal "--cache") Sys.argv

let antichain_mode =
  Array.exists (String.equal "antichain") Sys.argv
  || Array.exists (String.equal "--antichain") Sys.argv

let snapshot_mode =
  Array.exists (String.equal "snapshot") Sys.argv
  || Array.exists (String.equal "--snapshot") Sys.argv

let () =
  if server_mode then begin
    Fmt.pr "SWS benchmark harness — server load generator@.";
    Server_bench.run ();
    exit 0
  end;
  if cache_mode then begin
    Fmt.pr "SWS benchmark harness — cache ablation@.";
    Cache_bench.run ();
    exit 0
  end;
  if antichain_mode then begin
    Fmt.pr "SWS benchmark harness — antichain language-engine ablation@.";
    Antichain_bench.run ();
    exit 0
  end;
  if snapshot_mode then begin
    Fmt.pr "SWS benchmark harness — snapshot warm-start ablation@.";
    Snapshot_bench.run ();
    exit 0
  end

let () =
  Fmt.pr "SWS benchmark harness — reproducing Table 1, Table 2 and Figure 1 shapes@.";
  Fmt.pr "(mode: %s)@."
    (if overhead_only then "overhead only" else if quick then "quick" else "full");
  if not overhead_only then begin
    table1_pl_nr ();
    table1_pl_rec ();
    table1_cq_nr ();
    table1_cq_rec ();
    table1_fo ();
    table2_mdt_or ();
    table2_mdtb ();
    table2_cq ();
    table2_prefix ();
    table2_uc2rpq ();
    table2_undecidable ();
    figure1 ();
    engine_cache_ablation ();
    representation_ablation ();
    ablations ()
  end;
  tracing_overhead ();
  if not overhead_only then bechamel_section ();
  (match json_path with
  | None -> ()
  | Some path ->
    let report =
      Report.to_json
        ~mode:(if quick then "quick" else "full")
        ~tracing:!tracing_json ~histograms:!histograms_json
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Obs.Json.to_channel oc report);
    Fmt.pr "@.report: %s@." path);
  Fmt.pr "@.done.@."
