(* The decision problems of Section 4 — non-emptiness, validation and
   equivalence — for every SWS class of Table 1.

   Exact procedures implement the algorithms sketched in the proofs of
   Theorem 4.1:

   - SWS(PL, PL): via the alternating-automaton translation (the emptiness
     check explores reachable truth vectors on the fly — the PSPACE-style
     algorithm); SWS_nr(PL, PL): SAT on the unfolded formula (NP / coNP).
   - SWS_nr(CQ, UCQ): unfold to a UCQ with <> and use canonical databases
     (non-emptiness), a small-model search (validation) and Klug-complete
     containment (equivalence).
   - recursive SWS(CQ, UCQ) validation/equivalence and everything for
     SWS(FO, FO) are undecidable (Theorem 4.1(1,2)): those cells get
     bounded semi-procedures that report a structured [Exhausted] instead
     of guessing.

   All bounded scans run on the shared kernel (Engine.scan): one Budget
   vocabulary, one exhaustion report, one stats sink.  Budgets are checked
   between depths, never mid-depth, so a [No] / [Equivalent] from a
   decisive bound is always a full search of every depth it covers.

   Every positive answer carries a machine-checkable witness. *)

module R = Relational
module Prop = Proplogic.Prop
module Sat = Proplogic.Sat
module Dfa = Automata.Dfa

type 'w outcome =
  | Yes of 'w
  | No
  | Exhausted of Engine.exhausted

type 'c equiv_outcome =
  | Equivalent
  | Inequivalent of 'c
  | Equiv_exhausted of Engine.exhausted

(* ------------------------------------------------------------------ *)
(* The result cache (class "decision")                                 *)
(*                                                                     *)
(* Every decisive answer below is a pure function of (procedure,       *)
(* service content, arguments) — plus a budget for the bounded scans — *)
(* so results are routed through [Engine.Memo] stores keyed on exact   *)
(* canonical representations.  The budget-monotonicity rule            *)
(* (DESIGN.md §4h) is enforced by the memo: [Exhausted] answers are    *)
(* never stored (the [cacheable] predicates below), and a stored       *)
(* definitive answer is only served to requests whose budget subsumes  *)
(* the one it was computed under.  The FO row is deliberately not      *)
(* cached: its semi-procedures almost never answer definitively, so a  *)
(* store would hold nothing but dead keys.                             *)
(* ------------------------------------------------------------------ *)

let cacheable_outcome = function Yes _ | No -> true | Exhausted _ -> false

let cacheable_equiv = function
  | Equivalent | Inequivalent _ -> true
  | Equiv_exhausted _ -> false

(* Witnesses are small (an input sequence, a canonical database); a flat
   per-entry estimate keeps the weight math out of every witness type. *)
let flat_weight _ = 512

module Pl_word_memo = Engine.Memo (struct
  type t = Proplogic.Prop.assignment list outcome

  let weight = flat_weight
end)

module Pl_word_equiv_memo = Engine.Memo (struct
  type t = Proplogic.Prop.assignment list equiv_outcome

  let weight = flat_weight
end)

module Cq_ne_memo = Engine.Memo (struct
  type t =
    (Relational.Database.t * Relational.Relation.t list * Relational.Tuple.t)
    outcome

  let weight = flat_weight
end)

module Cq_val_memo = Engine.Memo (struct
  type t = (Relational.Database.t * Relational.Relation.t list) outcome

  let weight = flat_weight
end)

module Cq_equiv_memo = Engine.Memo (struct
  type t =
    (Relational.Database.t * Relational.Relation.t list * Relational.Tuple.t)
    equiv_outcome

  let weight = flat_weight
end)

let pl_word_store = Pl_word_memo.create ~cls:"decision" ()
let pl_word_equiv_store = Pl_word_equiv_memo.create ~cls:"decision" ()
let cq_ne_store = Cq_ne_memo.create ~cls:"decision" ()
let cq_val_store = Cq_val_memo.create ~cls:"decision" ()
let cq_equiv_store = Cq_equiv_memo.create ~cls:"decision" ()

(* Snapshot persistence (DESIGN.md §4k).  Only the PL stores: their
   values are pure data (assignment lists are [Set.Make(String)] sets),
   so a Marshal codec is sound under the abi stamp.  The CQ stores stay
   process-local — their witnesses embed [Database.t], whose shared
   [Index.t] holds per-domain shard initializers (closures), and Marshal
   would reject or, worse, a layout change would misdecode them.  Tags,
   not the shared "decision" class, route restore: each tag names exactly
   one (store, value type) pair. *)
let () =
  Pl_word_memo.persist_marshal pl_word_store ~tag:"decision/pl_word";
  Pl_word_equiv_memo.persist_marshal pl_word_equiv_store
    ~tag:"decision/pl_word_equiv"

(* Exact canonical key components.  The leading tag names the procedure,
   so stores shared by several procedures never mix their answers. *)
let key tag parts = Cache.Store.Key.of_parts (tag :: parts)

let relation_repr r =
  Relational.Relation.to_list r
  |> List.map (fun t -> List.map Relational.Value.id (Relational.Tuple.to_list t))
  |> List.sort compare
  |> List.map (fun ids -> String.concat "," (List.map string_of_int ids))
  |> fun rows ->
  string_of_int (Relational.Relation.arity r) ^ ":" ^ String.concat ";" rows

(* ------------------------------------------------------------------ *)
(* Language-engine plumbing                                            *)
(*                                                                     *)
(* The PL procedures decide language questions through                 *)
(* [Automata.Lang], which explores lazily under the caller's budget.   *)
(* ------------------------------------------------------------------ *)

module Lang = Automata.Lang

let limits_of_budget (b : Engine.Budget.t) =
  Lang.limits ?max_states:b.Engine.Budget.max_nodes
    ?max_depth:b.Engine.Budget.max_depth ?deadline_s:b.Engine.Budget.deadline_s
    ()

(* [`States] meters product pairs — the node axis of the budget. *)
let exhausted_of_trip ~name (t : Lang.trip) =
  {
    Engine.limit =
      (match t.Lang.tripped with
      | `States -> `Nodes
      | `Depth -> `Depth
      | `Deadline -> `Deadline);
    depth_reached = t.Lang.depth_reached;
    nodes_expanded = t.Lang.states_explored;
    message = Fmt.str "%s: %a" name Lang.pp_trip t;
  }

let lang_tick stats =
  match stats with
  | Some s -> Some (fun () -> Engine.Stats.node s)
  | None -> None

(* ------------------------------------------------------------------ *)
(* SWS(PL, PL), recursive: automata-based, always decisive             *)
(* ------------------------------------------------------------------ *)

let decode_word sws word = List.map (Sws_pl.assignment_of_symbol sws) word

(* Provenance outcome extractors shared by the decisive procedures. *)
let run_outcome = function
  | Yes _ -> Obs.Trace.Decided true
  | No -> Obs.Trace.Decided false
  | Exhausted e -> Obs.Trace.Tripped e.Engine.limit

let run_equiv_outcome = function
  | Equivalent -> Obs.Trace.Decided true
  | Inequivalent _ -> Obs.Trace.Decided false
  | Equiv_exhausted e -> Obs.Trace.Tripped e.Engine.limit

(* A shortest accepted word: [Afa.shortest_word] of the service's AFA,
   read off the memoized vector DFA of its reversed language. *)
let shortest_word ?stats sws =
  Option.map List.rev (Dfa.shortest_word (Sws_pl.vector_dfa ?stats sws))

(* Non-emptiness: is some input sequence answered with [true]?  Decisive
   whatever the budget, so the cached answer carries no budget tag. *)
let pl_non_emptiness ?stats sws =
  Pl_word_memo.run pl_word_store ?stats ~name:"pl_non_emptiness"
    ~key:(key "pl_ne" [ Sws_pl.canonical_repr sws ])
    ~outcome:run_outcome ~cacheable:cacheable_outcome
  @@ fun () ->
  Engine.run ?stats ~name:"pl_non_emptiness" ~outcome:run_outcome @@ fun () ->
  match shortest_word ?stats sws with
  | Some w -> Yes (decode_word sws w)
  | None -> No

(* Validation: for the PL class the output is one truth value.  O = true
   coincides with non-emptiness (as the paper remarks); O = false asks for a
   rejected sequence — note the empty sequence is always rejected, so the
   interesting check is universality of the complement. *)
let pl_validation ?stats ?budget sws ~output =
  let budget_v = Option.value budget ~default:Engine.Budget.unlimited in
  Pl_word_memo.run pl_word_store ?stats ~budget:budget_v ~name:"pl_validation"
    ~key:
      (key "pl_val"
         [
           (if output then "t" else "f");
           Sws_pl.canonical_repr sws;
         ])
    ~outcome:run_outcome ~cacheable:cacheable_outcome
  @@ fun () ->
  Engine.run ?stats ~name:"pl_validation" ~outcome:run_outcome @@ fun () ->
  if output then begin
    match shortest_word ?stats sws with
    | Some w -> Yes (decode_word sws w)
    | None -> No
  end
  else begin
    (* O = false asks for a rejected sequence: non-universality of the
       language, decided without determinizing. *)
    let nfa = Sws_pl.language_nfa ?stats sws in
    match
      Lang.universal_cex ~limits:(limits_of_budget budget_v)
        ?tick:(lang_tick stats) nfa
    with
    | Ok (Some w) -> Yes (decode_word sws w)
    | Ok None -> No
    | Error t -> Exhausted (exhausted_of_trip ~name:"pl_validation" t)
  end

(* Equivalence: same outputs on all databases (trivial here) and inputs,
   i.e. language equivalence of the two translations.  The services must
   agree on their input variables; re-declare them if needed. *)
let pl_equivalence ?stats ?budget sws1 sws2 =
  if Sws_pl.input_vars sws1 <> Sws_pl.input_vars sws2 then
    invalid_arg "pl_equivalence: services declare different input variables";
  let budget_v = Option.value budget ~default:Engine.Budget.unlimited in
  Pl_word_equiv_memo.run pl_word_equiv_store ?stats ~budget:budget_v
    ~name:"pl_equivalence"
    ~key:
      (key "pl_eq" [ Sws_pl.canonical_repr sws1; Sws_pl.canonical_repr sws2 ])
    ~outcome:run_equiv_outcome ~cacheable:cacheable_equiv
  @@ fun () ->
  Engine.run ?stats ~name:"pl_equivalence" ~outcome:run_equiv_outcome
  @@ fun () ->
  let n1 = Sws_pl.language_nfa ?stats sws1 in
  let n2 = Sws_pl.language_nfa ?stats sws2 in
  match
    Lang.equivalent_cex ~limits:(limits_of_budget budget_v)
      ?tick:(lang_tick stats) n1 n2
  with
  | Ok None -> Equivalent
  | Ok (Some w) -> Inequivalent (decode_word sws1 w)
  | Error t -> Equiv_exhausted (exhausted_of_trip ~name:"pl_equivalence" t)

(* ------------------------------------------------------------------ *)
(* SWS_nr(PL, PL): SAT-based NP / coNP procedures                      *)
(* ------------------------------------------------------------------ *)

let require_nonrecursive_pl sws =
  match Sws_pl.depth sws with
  | Some d -> d
  | None -> invalid_arg "this procedure expects a nonrecursive service"

(* Decode a model of the unfolded formula into an input sequence. *)
let decode_model sws ~n model =
  List.init n (fun j ->
      List.fold_left
        (fun acc x ->
          if Prop.assignment_mem (Sws_pl.timed_var x (j + 1)) model then
            Prop.Sset.add x acc
          else acc)
        Prop.Sset.empty (Sws_pl.input_vars sws))

let solve_counted ?(stats = Engine.Stats.global) f =
  Engine.Stats.sat_call stats;
  Sat.solve f

(* The unfolded formula stabilizes once n exceeds the dependency depth, so
   scanning n = 0 .. depth + 1 is a complete search. *)
let pl_nr_non_emptiness ?stats sws =
  let d = require_nonrecursive_pl sws in
  Pl_word_memo.run pl_word_store ?stats ~name:"pl_nr_non_emptiness"
    ~key:(key "pl_nr_ne" [ Sws_pl.canonical_repr sws ])
    ~outcome:run_outcome ~cacheable:cacheable_outcome
  @@ fun () ->
  match
    Engine.scan ?stats ~decisive_bound:(d + 1) ~name:"pl_nr_non_emptiness"
      (fun meter n ->
        Engine.Meter.tick meter;
        match solve_counted ?stats (Sws_pl.unfold sws ~n) with
        | Some model -> Some (decode_model sws ~n model)
        | None -> None)
  with
  | Engine.Found w -> Yes w
  | Engine.Completed _ -> No
  | Engine.Exhausted e -> Exhausted e

let pl_nr_validation ?stats sws ~output =
  let d = require_nonrecursive_pl sws in
  Pl_word_memo.run pl_word_store ?stats ~name:"pl_nr_validation"
    ~key:
      (key "pl_nr_val"
         [ (if output then "t" else "f"); Sws_pl.canonical_repr sws ])
    ~outcome:run_outcome ~cacheable:cacheable_outcome
  @@ fun () ->
  match
    Engine.scan ?stats ~decisive_bound:(d + 1) ~name:"pl_nr_validation"
      (fun meter n ->
        Engine.Meter.tick meter;
        let f = Sws_pl.unfold sws ~n in
        let goal = if output then f else Prop.Not f in
        match solve_counted ?stats goal with
        | Some model -> Some (decode_model sws ~n model)
        | None -> None)
  with
  | Engine.Found w -> Yes w
  | Engine.Completed _ -> No
  | Engine.Exhausted e -> Exhausted e

let pl_nr_equivalence ?stats sws1 sws2 =
  let d1 = require_nonrecursive_pl sws1 and d2 = require_nonrecursive_pl sws2 in
  if Sws_pl.input_vars sws1 <> Sws_pl.input_vars sws2 then
    invalid_arg "pl_nr_equivalence: services declare different input variables";
  Pl_word_equiv_memo.run pl_word_equiv_store ?stats ~name:"pl_nr_equivalence"
    ~key:
      (key "pl_nr_eq"
         [ Sws_pl.canonical_repr sws1; Sws_pl.canonical_repr sws2 ])
    ~outcome:run_equiv_outcome ~cacheable:cacheable_equiv
  @@ fun () ->
  match
    Engine.scan ?stats ~decisive_bound:(max d1 d2 + 1)
      ~name:"pl_nr_equivalence" (fun meter n ->
        Engine.Meter.tick meter;
        let f1 = Sws_pl.unfold sws1 ~n and f2 = Sws_pl.unfold sws2 ~n in
        match solve_counted ?stats (Prop.Not (Prop.Iff (f1, f2))) with
        | Some model -> Some (decode_model sws1 ~n model)
        | None -> None)
  with
  | Engine.Found w -> Inequivalent w
  | Engine.Completed _ -> Equivalent
  | Engine.Exhausted e -> Equiv_exhausted e

(* ------------------------------------------------------------------ *)
(* Data-driven classes: unfolding-based procedures                     *)
(* ------------------------------------------------------------------ *)

(* Split a database over the unfolded vocabulary back into (D, I). *)
let split_witness sws ~n db =
  let open R in
  let d =
    Database.fold
      (fun name rel acc ->
        if Schema.mem name (Sws_data.db_schema sws) then
          Database.set name rel acc
        else acc)
      db
      (Database.empty (Sws_data.db_schema sws))
  in
  let inputs =
    List.init n (fun j ->
        let name = Unfold.timed_in (j + 1) in
        if Schema.mem name (Database.schema db) then Database.find name db
        else Relation.empty (Sws_data.in_arity sws))
  in
  (d, inputs)

(* Nonrecursive services stabilize at depth + 1, so their scans complete
   there and the default budget is unlimited; recursive services fall back
   to [default] unless the caller supplies a budget. *)
let scan_limits sws ~budget ~default =
  let decisive_bound = Option.map (fun d -> d + 1) (Sws_data.depth sws) in
  let budget =
    match budget with
    | Some b -> b
    | None -> (
      match decisive_bound with
      | Some _ -> Engine.Budget.unlimited
      | None -> default)
  in
  (decisive_bound, budget)

(* Non-emptiness for SWS(CQ, UCQ): a disjunct of the unfolded UCQ with a
   consistent partition yields a canonical-database witness. *)
let cq_non_emptiness ?stats ?budget sws =
  let decisive_bound, budget =
    scan_limits sws ~budget ~default:(Engine.Budget.of_depth 6)
  in
  Cq_ne_memo.run cq_ne_store ?stats ~budget ~name:"cq_non_emptiness"
    ~key:(key "cq_ne" [ Sws_data.canonical_repr sws ])
    ~outcome:run_outcome ~cacheable:cacheable_outcome
  @@ fun () ->
  let schema_at n = Unfold.schema sws ~n in
  match
    Engine.scan ?stats ~budget ?decisive_bound ~name:"cq_non_emptiness"
      (fun meter n ->
        let q = Unfold.to_ucq ?stats sws ~n in
        (* Disjuncts are independent: partition consistency of one never
           depends on another, so the scan fans out across the domain pool.
           [find_first] keeps the sequential answer — the first disjunct in
           UCQ order with a consistent partition. *)
        Engine.find_first
          (fun (d : R.Cq.t) ->
            Engine.Meter.tick meter;
            match R.Cq.partitions d with
            | [] -> None
            | subst :: _ ->
              let db, goal = R.Cq.ground_under ~schema:(schema_at n) subst d in
              let dd, inputs = split_witness sws ~n db in
              Some (dd, inputs, goal))
          (R.Ucq.disjuncts q))
  with
  | Engine.Found w -> Yes w
  | Engine.Completed _ -> No
  | Engine.Exhausted e -> Exhausted e

(* Validation for SWS(CQ, UCQ): small-model search.  O = empty is witnessed
   by the empty input sequence (rule (1)).  Otherwise each output tuple is
   assigned to a disjunct and an identification pattern; the assembled
   canonical database is kept only if it reproduces O exactly.  Sound and,
   on the canonical candidate space, complete; recursive services and
   exhausted budgets report a structured [Exhausted]. *)
let cq_validation ?stats ?budget ?(max_assignments = 4096) sws ~output =
  let open R in
  if Relation.is_empty output then
    Yes (Database.empty (Sws_data.db_schema sws), [])
  else begin
    let decisive_bound, budget =
      scan_limits sws ~budget ~default:(Engine.Budget.of_depth 4)
    in
    Cq_val_memo.run cq_val_store ?stats ~budget ~name:"cq_validation"
      ~key:
        (key "cq_val"
           [
             Sws_data.canonical_repr sws;
             relation_repr output;
             string_of_int max_assignments;
           ])
      ~outcome:run_outcome ~cacheable:cacheable_outcome
    @@ fun () ->
    let tuples = Relation.to_list output in
    let truncated = ref false in
    let try_n meter n =
      let q = Unfold.to_ucq ?stats sws ~n in
      let schema = Unfold.schema sws ~n in
      (* one null supply across every partition grounded at this depth:
         candidate databases from different disjuncts/tuples are merged
         below, so their labelled nulls must stay pairwise distinct *)
      let supply = Value.Fresh.supply () in
      (* candidate groundings of one disjunct onto one output tuple *)
      let groundings tuple =
        List.concat_map
          (fun (d : Cq.t) ->
            List.filter_map
              (fun subst ->
                (* the partition must send the head exactly to [tuple] *)
                let head_vals =
                  List.map (Subst.apply_term_exn subst) d.Cq.head
                in
                (* frozen class representatives may be renamed to the output
                   values they must equal *)
                let rename =
                  List.fold_left2
                    (fun acc v target ->
                      match acc with
                      | None -> None
                      | Some map ->
                        if Value.equal v target then Some map
                        else if Value.is_frozen v then
                          match List.assoc_opt v map with
                          | None -> Some ((v, target) :: map)
                          | Some t when Value.equal t target -> Some map
                          | Some _ -> None
                        else None)
                    (Some []) head_vals (Tuple.to_list tuple)
                in
                match rename with
                | None -> None
                | Some map ->
                  let subst' =
                    List.fold_left
                      (fun s (x, v) ->
                        let v' =
                          match List.assoc_opt v map with
                          | Some t -> t
                          | None -> v
                        in
                        Subst.bind x v' s)
                      Subst.empty (Subst.to_list subst)
                  in
                  let db, goal = Cq.ground_under ~schema subst' d in
                  if Tuple.equal goal tuple then Some db else None)
              (Cq.partitions ~supply d))
          (Ucq.disjuncts q)
      in
      let per_tuple = List.map groundings tuples in
      if List.exists (fun g -> g = []) per_tuple then None
      else begin
        let rec combine dbs = function
          | [] -> [ dbs ]
          | choices :: rest ->
            List.concat_map (fun db -> combine (db :: dbs) rest) choices
        in
        let candidates = combine [] per_tuple in
        let candidates =
          if List.length candidates > max_assignments then begin
            truncated := true;
            List.filteri (fun i _ -> i < max_assignments) candidates
          end
          else candidates
        in
        (* Candidate assignments are evaluated independently (the grounded
           databases were all built above, sequentially, from one null
           supply), so the re-evaluation check fans out across the pool;
           the first reproducing candidate in assignment order wins, as in
           the sequential search. *)
        Engine.find_first
          (fun dbs ->
            Engine.Meter.tick meter;
            let db =
              List.fold_left Database.merge (Database.empty schema) dbs
            in
            if Relation.equal (Ucq.eval q db) output then Some db
            else None)
          candidates
      end
    in
    match
      Engine.scan ?stats ~budget ?decisive_bound ~start:1
        ~name:"cq_validation" (fun meter n ->
          match try_n meter n with
          | Some db ->
            let d, inputs = split_witness sws ~n db in
            Some (d, inputs)
          | None -> None)
    with
    | Engine.Found w -> Yes w
    | Engine.Exhausted e -> Exhausted e
    | Engine.Completed bound ->
      (* the complete scan finished without a canonical witness: the
         candidate space, not the budget, is what ran out — rewrite the
         scan's provenance record to say so *)
      Obs.Trace.amend_last_provenance (fun p ->
          { p with Obs.Trace.outcome = Obs.Trace.Tripped `Candidates });
      let message =
        if !truncated then
          Printf.sprintf
            "canonical search truncated at %d assignments per input length"
            max_assignments
        else
          "no canonical witness; identifications outside the candidate \
           space remain"
      in
      Exhausted
        {
          Engine.limit = `Candidates;
          depth_reached = bound;
          nodes_expanded = 0;
          message;
        }
  end

(* Equivalence for SWS(CQ, UCQ): Klug-complete containment of the two
   unfoldings at every input length up to the stabilization bound.  On
   failure, the counterexample is the canonical database of the failing
   partition, split back into (D, I), plus the separating output tuple. *)
let cq_equivalence ?stats ?budget sws1 sws2 =
  let b1, bu1 =
    scan_limits sws1 ~budget ~default:(Engine.Budget.of_depth 4)
  in
  let b2, bu2 =
    scan_limits sws2 ~budget ~default:(Engine.Budget.of_depth 4)
  in
  let decisive_bound =
    match (b1, b2) with Some a, Some b -> Some (max a b) | _ -> None
  in
  let budget = Engine.Budget.combine bu1 bu2 in
  Cq_equiv_memo.run cq_equiv_store ?stats ~budget ~name:"cq_equivalence"
    ~key:
      (key "cq_eq"
         [ Sws_data.canonical_repr sws1; Sws_data.canonical_repr sws2 ])
    ~outcome:run_equiv_outcome ~cacheable:cacheable_equiv
  @@ fun () ->
  let stats_sink =
    match stats with Some s -> s | None -> Engine.Stats.global
  in
  match
    Engine.scan ?stats ~budget ?decisive_bound ~name:"cq_equivalence"
      (fun meter n ->
        Engine.Meter.tick meter;
        Engine.Stats.hom_check stats_sink;
        let q1 = Unfold.to_ucq ?stats sws1 ~n
        and q2 = Unfold.to_ucq ?stats sws2 ~n in
        match R.Ucq.inequivalence_witness q1 q2 with
        | None -> None
        | Some (db, tuple) ->
          let d, inputs = split_witness sws1 ~n db in
          Some (d, inputs, tuple))
  with
  | Engine.Found w -> Inequivalent w
  | Engine.Completed _ -> Equivalent
  | Engine.Exhausted e -> Equiv_exhausted e

(* ------------------------------------------------------------------ *)
(* SWS(FO, FO): bounded semi-procedures (the undecidable row)          *)
(* ------------------------------------------------------------------ *)

(* Bounded model search is incomplete even for nonrecursive services, so
   these scans never complete decisively: running out of depths is
   reported as exhaustion with a small-model caveat in the message. *)
let fo_exhausted e ~too_large =
  {
    e with
    Engine.message =
      (if too_large then
         e.Engine.message ^ "; model search space exceeded the pool bound"
       else e.Engine.message ^ " (small-model search only)");
  }

let fo_non_emptiness ?stats ?(budget = Engine.Budget.of_depth 3) ?(max_dom = 3)
    ?(max_pool = 16) sws =
  let too_large = ref false in
  match
    Engine.scan ?stats ~budget ~name:"fo_non_emptiness" (fun meter n ->
        Engine.Meter.tick meter;
        let q = Unfold.to_fo ?stats sws ~n in
        let sentence = R.Fo.exists_many q.R.Fo.head q.R.Fo.body in
        match R.Fo.satisfiable_bounded ~max_dom ~max_pool sentence with
        | R.Fo.Sat db ->
          let d, inputs = split_witness sws ~n db in
          Some (d, inputs)
        | R.Fo.Unsat_within_bounds -> None
        | R.Fo.Search_too_large ->
          too_large := true;
          None)
  with
  | Engine.Found w -> Yes w
  | Engine.Completed _ -> assert false (* no decisive bound *)
  | Engine.Exhausted e -> Exhausted (fo_exhausted e ~too_large:!too_large)

let fo_equivalence ?stats ?(budget = Engine.Budget.of_depth 2) ?(max_dom = 2)
    ?(max_pool = 12) sws1 sws2 =
  match
    Engine.scan ?stats ~budget ~name:"fo_equivalence" (fun meter n ->
        Engine.Meter.tick meter;
        let q1 = Unfold.to_fo ?stats sws1 ~n
        and q2 = Unfold.to_fo ?stats sws2 ~n in
        let p1 = R.Fo.prefix_query "l_" q1 and p2 = R.Fo.prefix_query "r_" q2 in
        let shared =
          List.init (List.length p1.R.Fo.head) (fun i ->
              Printf.sprintf "@w%d" i)
        in
        let inst q =
          R.Fo.subst_free
            (List.map2 (fun x y -> (x, R.Term.var y)) q.R.Fo.head shared)
            q.R.Fo.body
        in
        let differ =
          R.Fo.exists_many shared
            (R.Fo.disj
               [
                 R.Fo.conj [ inst p1; R.Fo.Not (inst p2) ];
                 R.Fo.conj [ inst p2; R.Fo.Not (inst p1) ];
               ])
        in
        match R.Fo.satisfiable_bounded ~max_dom ~max_pool differ with
        | R.Fo.Sat db ->
          let d, inputs = split_witness sws1 ~n db in
          Some (d, inputs)
        | R.Fo.Unsat_within_bounds | R.Fo.Search_too_large -> None)
  with
  | Engine.Found w -> Inequivalent w
  | Engine.Completed _ -> assert false (* no decisive bound *)
  | Engine.Exhausted e -> Equiv_exhausted (fo_exhausted e ~too_large:false)

let fo_validation ?stats ?(budget = Engine.Budget.of_depth 3) ?(max_dom = 3)
    ?(max_pool = 16) sws ~output =
  if R.Relation.is_empty output then
    Yes (R.Database.empty (Sws_data.db_schema sws), [])
  else begin
    (* look for a model of "the unfolding contains each tuple of O and
       nothing else"; expressible in FO since O is a concrete relation *)
    match
      Engine.scan ?stats ~budget ~start:1 ~name:"fo_validation"
        (fun meter n ->
          Engine.Meter.tick meter;
          let q = Unfold.to_fo ?stats sws ~n in
          let ys = q.R.Fo.head in
          let member =
            R.Fo.disj
              (List.map
                 (fun tup ->
                   R.Fo.conj
                     (List.map2
                        (fun y v -> R.Fo.eq (R.Term.var y) (R.Term.const v))
                        ys (R.Tuple.to_list tup)))
                 (R.Relation.to_list output))
          in
          let exact =
            R.Fo.conj
              [
                (* every tuple of O is produced *)
                R.Fo.conj
                  (List.map
                     (fun tup ->
                       R.Fo.subst_free
                         (List.map2
                            (fun y v -> (y, R.Term.const v))
                            ys (R.Tuple.to_list tup))
                         q.R.Fo.body)
                     (R.Relation.to_list output));
                (* nothing else is *)
                R.Fo.forall_many ys (R.Fo.Implies (q.R.Fo.body, member));
              ]
          in
          match R.Fo.satisfiable_bounded ~max_dom ~max_pool exact with
          | R.Fo.Sat db ->
            let d, inputs = split_witness sws ~n db in
            Some (d, inputs)
          | R.Fo.Unsat_within_bounds | R.Fo.Search_too_large -> None)
    with
    | Engine.Found w -> Yes w
    | Engine.Completed _ -> assert false (* no decisive bound *)
    | Engine.Exhausted e -> Exhausted (fo_exhausted e ~too_large:false)
  end
