(* paper_kernels: seeded instances of the paper's Table 1 and Table 2
   families, run in-process through the public Decision / Compose /
   relational entry points.  swsd speaks only regexes, so this is the one
   workload that reaches SAT, CQ containment and evaluation, datalog,
   bucket rewriting and Figure 1's travel service.

   An op is one procedure call that ends in a verdict.  Every instance
   knows its expected answer by construction, or is checked afterwards by
   code of this file that shares nothing with the procedure it checks. *)

open Sws
module R = Relational
module Prop = Proplogic.Prop
module Nfa = Automata.Nfa
module Afa = Automata.Afa

(* [run sink] makes the timed call and returns the untimed check of its
   answer.  Reference answers are computed once per instance, on first
   use, so instance generation (the workload's set-up) stays lean. *)
type instance = { family : string; run : Engine.Stats.t -> unit -> Check.verdict }

let ok cond msg = if cond then Check.Decided else Check.Failed msg

let v = R.Term.var
let cq head body = R.Cq.make ~head ~body ()
let ival = R.Value.int

(* {1 SWS_nr(PL, PL): SAT} *)

(* A random 3-CNF as literal arrays (variable, polarity). *)
let random_cnf rng ~vars ~clauses =
  Array.init clauses (fun _ ->
      Array.init 3 (fun _ -> (Random.State.int rng vars, Random.State.bool rng)))

let prop_of_cnf cnf =
  Prop.conj
    (Array.to_list
       (Array.map
          (fun c ->
            Prop.disj
              (Array.to_list
                 (Array.map
                    (fun (x, pos) ->
                      let p = Prop.var (Printf.sprintf "x%d" x) in
                      if pos then p else Prop.Not p)
                    c)))
          cnf))

let cnf_holds cnf value = Array.for_all (Array.exists (fun (x, pos) -> value x = pos)) cnf

let brute_force_sat ~vars cnf =
  let rec go m = m < 1 lsl vars && (cnf_holds cnf (fun x -> m land (1 lsl x) <> 0) || go (m + 1)) in
  go 0

let sat_vars = 14

let sat_non_emptiness rng _ =
  let cnf = random_cnf rng ~vars:sat_vars ~clauses:60 in
  let sws = Reductions.sws_of_sat (prop_of_cnf cnf) in
  let unsat = lazy (not (brute_force_sat ~vars:sat_vars cnf)) in
  { family = "sat.non_emptiness";
    run =
      (fun stats ->
        let r = Decision.pl_nr_non_emptiness ~stats sws in
        fun () ->
          match r with
          | Decision.Yes (first :: _) ->
            ok
              (cnf_holds cnf (fun x -> Prop.assignment_mem (Printf.sprintf "x%d" x) first))
              "SAT witness does not satisfy its formula"
          | Decision.Yes [] -> Check.Failed "empty SAT witness"
          | Decision.No -> ok (Lazy.force unsat) "satisfiable formula answered no"
          | Decision.Exhausted _ -> Check.Failed "SAT non-emptiness tripped a budget") }

let sat_equivalence rng _ =
  let cnf = random_cnf rng ~vars:5 ~clauses:15 in
  let f = prop_of_cnf cnf in
  let s1 = Reductions.sws_of_sat f and s2 = Reductions.sws_of_sat (Prop.simplify f) in
  { family = "sat.equivalence";
    run =
      (fun stats ->
        let r = Decision.pl_nr_equivalence ~stats s1 s2 in
        fun () ->
          match r with
          | Decision.Equivalent -> Check.Decided
          | _ -> Check.Failed "a formula and its simplification answered inequivalent") }

(* {1 SWS_nr(CQ, UCQ): unfolding and Klug containment} *)

(* A service whose execution tree branches twice per level down to
   [depth]; level l's synthesis unions the outputs of its first [arms.(l)]
   successors, and each leaf joins its message with relation
   [leaf_rel]. *)
let tree_service ~depth ~arms ~leaf_rel =
  let phi = Sws_data.Q_cq (cq [ v "x" ] [ R.Atom.make Sws_data.in_rel [ v "x" ] ]) in
  let leaf =
    Sws_data.Q_cq
      (cq [ v "x"; v "y" ] [ R.Atom.make Sws_data.msg_rel [ v "x" ]; R.Atom.make leaf_rel [ v "x"; v "y" ] ])
  in
  let rec rules level =
    let name = Printf.sprintf "n%d" level in
    if level = depth then [ (name, { Sws_def.succs = []; synth = leaf }) ]
    else
      let child = Printf.sprintf "n%d" (level + 1) in
      let acts =
        List.init arms.(level) (fun i ->
            cq [ v "x"; v "y" ] [ R.Atom.make (Printf.sprintf "act%d" (i + 1)) [ v "x"; v "y" ] ])
      in
      (name, { Sws_def.succs = [ (child, phi); (child, phi) ]; synth = Sws_data.Q_ucq (R.Ucq.make acts) })
      :: rules (level + 1)
  in
  Sws_data.make
    ~db_schema:(R.Schema.of_list [ ("r", 2); ("s", 2) ])
    ~in_arity:1 ~out_arity:2 ~start:"n0" ~rules:(rules 0)

(* Bit [b] of the instance index [j] picks between two shapes. *)
let bit j b = (j lsr b) land 1 = 1

(* Level l's arm count: 1 or 2, from bit [l] of [j]. *)
let arms_of j depth = Array.init depth (fun l -> if bit j l then 2 else 1)

let cq_non_emptiness _ j =
  let sws = tree_service ~depth:4 ~arms:(arms_of j 4) ~leaf_rel:(if bit j 4 then "s" else "r") in
  { family = "cq.non_emptiness";
    run =
      (fun stats ->
        let r = Decision.cq_non_emptiness ~stats sws in
        fun () ->
          match r with
          | Decision.Yes _ -> Check.Decided
          | _ -> Check.Failed "a satisfiable tree service answered empty") }

let cq_equivalence _ j =
  let arms = arms_of j 2 in
  let same = not (bit j 2) in
  let s1 = tree_service ~depth:2 ~arms ~leaf_rel:"r" in
  let s2 = tree_service ~depth:2 ~arms ~leaf_rel:(if same then "r" else "s") in
  { family = "cq.containment";
    run =
      (fun stats ->
        let r = Decision.cq_equivalence ~stats s1 s2 in
        fun () ->
          match (r, same) with
          | Decision.Equivalent, true | Decision.Inequivalent _, false -> Check.Decided
          | _ -> Check.Failed "tree-service equivalence answered against its construction") }

(* {1 SWS(PL, PL): AFA truth-vector exploration on the k-chain} *)

(* "the k-th symbol from the end is [sym]", over {0, 1} *)
let kchain_nfa ~k ~sym =
  let other = 1 - sym in
  let edges =
    (0, sym, 0) :: (0, other, 0) :: (0, sym, 1)
    :: List.concat_map (fun i -> [ (i, 0, i + 1); (i, 1, i + 1) ]) (List.init (k - 1) (fun i -> i + 1))
  in
  Nfa.create ~num_states:(k + 1) ~alphabet_size:2 ~starts:[ 0 ] ~finals:[ k ] ~edges ~eps_edges:[]

let kchain_k = 7

let afa_kchain _ j =
  let sym = if bit j 0 then 1 else 0 in
  let sws = Reductions.sws_of_afa (Afa.of_nfa (kchain_nfa ~k:kchain_k ~sym)) in
  { family = "afa.kchain";
    run =
      (fun stats ->
        let r = Decision.pl_non_emptiness ~stats sws in
        fun () ->
          match r with
          | Decision.Yes w -> ok (List.length w = kchain_k + 2) "k-chain witness is not a shortest word"
          | _ -> Check.Failed "the k-chain language answered empty") }

(* {1 Table 2: CQ composition by bucket rewriting} *)

let chain_goal len =
  let atom i = R.Atom.make "e" [ v (Printf.sprintf "x%d" i); v (Printf.sprintf "x%d" (i + 1)) ] in
  R.Ucq.of_cq (cq [ v "x0"; v (Printf.sprintf "x%d" len) ] (List.init len atom))

let compose_cq _ j =
  let db_schema = R.Schema.of_list [ ("e", 2) ] in
  let view2 = ("v2", cq [ v "a"; v "c" ] [ R.Atom.make "e" [ v "a"; v "b" ]; R.Atom.make "e" [ v "b"; v "c" ] ]) in
  let view1 = ("v1", cq [ v "a"; v "b" ] [ R.Atom.make "e" [ v "a"; v "b" ] ]) in
  (* the even chain has an exact rewriting over the 2-path view; the odd
     one has one only when the single-edge view is offered too *)
  let len = if bit j 0 then 3 else 4 in
  let with_edge = bit j 1 in
  let components = if with_edge then [ view2; view1 ] else [ view2 ] in
  let exact = len mod 2 = 0 || with_edge in
  { family = "rewriting.compose_cq";
    run =
      (fun _ ->
        let r = Compose.compose_cq ~max_atoms:(len + 1) ~db_schema ~components (chain_goal len) in
        fun () ->
          match (r, exact) with
          | Compose.Cq_composed _, true -> Check.Decided
          | (Compose.Cq_only_contained _ | Compose.Cq_no_mediator), false -> Check.Decided
          | _ -> Check.Failed "chain-goal composition answered against its construction") }

(* {1 Datalog: same-generation sirups, semi-naive} *)

(* sg(0,0); sg(x,y) :- e(x,u), sg(u,v), e(y,v); goal sg(n-1, n-1). *)
let sg_derives ~num_nodes edges =
  let preds = Array.make num_nodes [] in
  List.iter (fun (x, u) -> preds.(u) <- x :: preds.(u)) edges;
  let sg = Hashtbl.create 64 in
  let rec add = function
    | [] -> ()
    | (u, w) :: rest when Hashtbl.mem sg (u, w) -> add rest
    | (u, w) :: rest ->
      Hashtbl.add sg (u, w) ();
      add (List.concat_map (fun x -> List.map (fun y -> (x, y)) preds.(w)) preds.(u) @ rest)
  in
  add [ (0, 0) ];
  Hashtbl.mem sg (num_nodes - 1, num_nodes - 1)

let sirup rng _ =
  let num_nodes = 24 in
  let ((_, edges) as inst) = Datalog.Sirup.same_generation rng ~num_nodes ~num_edges:(2 * num_nodes) in
  let int_of = function R.Value.Int i -> i | _ -> -1 in
  let expected = lazy (sg_derives ~num_nodes (List.map (fun (a, b) -> (int_of a, int_of b)) edges)) in
  { family = "datalog.seminaive";
    run =
      (fun _ ->
        let r = Datalog.Sirup.accepts_with_edges inst in
        fun () -> ok (r = Lazy.force expected) "same-generation goal answered against the reference fixpoint") }

(* {1 Datalog: transitive closure, semi-naive} *)

let transitive_closure rng _ =
  let nodes = 60 in
  let edges = List.init 75 (fun _ -> (Random.State.int rng nodes, Random.State.int rng nodes)) in
  let program =
    Datalog.Dl.make
      [ Datalog.Dl.plain_rule "tc" [ v "x"; v "y" ] [ R.Atom.make "e" [ v "x"; v "y" ] ];
        Datalog.Dl.plain_rule "tc" [ v "x"; v "z" ] [ R.Atom.make "e" [ v "x"; v "y" ]; R.Atom.make "tc" [ v "y"; v "z" ] ] ]
  in
  let db =
    List.fold_left
      (fun db (a, b) -> R.Database.add_tuple "e" (R.Tuple.of_list [ ival a; ival b ]) db)
      (R.Database.empty (R.Schema.of_list [ ("e", 2); ("tc", 2) ]))
      edges
  in
  (* the reference answer: every pair joined by a non-empty path *)
  let expected =
    lazy
      (let reach = Array.make_matrix nodes nodes false in
       List.iter (fun (a, b) -> reach.(a).(b) <- true) edges;
       for k = 0 to nodes - 1 do
         for i = 0 to nodes - 1 do
           if reach.(i).(k) then for j = 0 to nodes - 1 do if reach.(k).(j) then reach.(i).(j) <- true done
         done
       done;
       reach)
  in
  { family = "datalog.tc";
    run =
      (fun _ ->
        let r = R.Database.find "tc" (Datalog.Seminaive.eval program db) in
        fun () ->
          let reach = Lazy.force expected in
          let count = Array.fold_left (Array.fold_left (fun n b -> if b then n + 1 else n)) 0 reach in
          ok
            (R.Relation.cardinal r = count
            && R.Relation.for_all
                 (fun t -> match (t.(0), t.(1)) with R.Value.Int a, R.Value.Int b -> reach.(a).(b) | _ -> false)
                 r)
            "transitive closure differs from the reference") }

(* {1 Relational: the indexed 4-chain join} *)

let cq_eval rng _ =
  let nodes = 160 and num_edges = 320 in
  let edges = List.init num_edges (fun _ -> (Random.State.int rng nodes, Random.State.int rng nodes)) in
  let db =
    List.fold_left
      (fun db (a, b) -> R.Database.add_tuple "e" (R.Tuple.of_list [ ival a; ival b ]) db)
      (R.Database.empty (R.Schema.of_list [ ("e", 2) ]))
      edges
  in
  let q =
    cq [ v "x0"; v "x4" ]
      (List.init 4 (fun i -> R.Atom.make "e" [ v (Printf.sprintf "x%d" i); v (Printf.sprintf "x%d" (i + 1)) ]))
  in
  (* the reference answer: endpoints of every 4-edge walk *)
  let expected =
    lazy
      (let succ = Array.make nodes [] in
       List.iter (fun (a, b) -> if not (List.mem b succ.(a)) then succ.(a) <- b :: succ.(a)) edges;
       let ends = Hashtbl.create 256 in
       for x = 0 to nodes - 1 do
         let rec walk k y = if k = 0 then Hashtbl.replace ends (x, y) () else List.iter (walk (k - 1)) succ.(y) in
         walk 4 x
       done;
       ends)
  in
  { family = "cq.eval";
    run =
      (fun _ ->
        let r = R.Cq.eval q db in
        fun () ->
          let got = List.map (fun t -> (t.(0), t.(1))) (R.Relation.to_list r) in
          let expected = Lazy.force expected in
          ok
            (List.length got = Hashtbl.length expected
            && List.for_all
                 (function R.Value.Int a, R.Value.Int b -> Hashtbl.mem expected (a, b) | _ -> false)
                 got)
            "4-chain answer differs from the reference walk") }

(* {1 Figure 1: the travel service, parallel tau1 beside the sequential
   FSA-style variant; both must book the same packages} *)

let travel rng _ =
  let items () = List.init 12 (fun i -> (i, 100 + Random.State.int rng 8)) in
  let db = Travel.catalog_db ~airfares:(items ()) ~hotels:(items ()) ~tickets:(items ()) ~cars:(items ()) in
  let budget () = 100 + Random.State.int rng 8 in
  let req = Travel.request ~air:[ budget () ] ~hotel:[ budget () ] ~ticket:[ budget () ] ~car:[ budget () ] () in
  let parallel = ref None in
  [ { family = "travel.booked";
      run =
        (fun _ ->
          let r = Travel.booked db req in
          parallel := Some r;
          fun () -> Check.Decided) };
    { family = "travel.booked_sequential";
      run =
        (fun _ ->
          let r = Travel.booked_sequential db req in
          fun () ->
            match !parallel with
            | Some p -> ok (R.Relation.equal p r) "tau1 and tau1_sequential booked different packages"
            | None -> Check.Failed "sequential booking ran before the parallel one") } ]

(* {1 The pool} *)

(* Instances per family.  A family whose instances come in a few shapes
   takes them from the bits of the instance index, so every seed runs
   each shape equally often (96 is a multiple of the 32 shapes of
   cq.non_emptiness); the seed draws the rest (formulas, graphs,
   catalogues), and enough of them that a family's cost spread, not the
   seed's draw, shapes its latency distribution. *)
let per_family = 96

(* Instances in round-robin order: op [i] runs [pool.(i mod length)]. *)
let pool ~seed =
  let rng = Random.State.make [| seed; 0x4B52 |] in
  let families =
    [ sat_non_emptiness; sat_equivalence; cq_non_emptiness; cq_equivalence; afa_kchain; compose_cq; sirup;
      transitive_closure; cq_eval ]
  in
  Array.of_list
    (List.concat
       (List.init per_family (fun j -> List.map (fun f -> f rng j) families @ travel rng j)))
