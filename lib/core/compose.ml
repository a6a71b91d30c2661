(* Composition synthesis CP(G, M, C) (Section 5): given a goal service and a
   set of available component services, decide whether some mediator over
   the components is equivalent to the goal — and construct it when one
   exists.

   Decidable cases implemented exactly:

   - PL classes with MDT(∨) mediators (Theorem 5.3(1, 2), and the k-prefix
     machinery of Theorem 5.1(4, 5)): at the language level.  A component's
     contribution to a mediator run is its minimal-prefix language ("the
     corresponding NFAs stop processing the input the first time a final
     state is encountered"), and an ∨-synthesis mediator denotes a regular
     combination of component languages, so synthesis reduces to the CGLV
     rewriting of the goal language over the component languages
     (Rewriting.Regex_rewrite).  The returned rewriting DFA *is* the
     mediator: its states are mediator states and its edges component
     invocations, with disjunctive synthesis.

   - MDT_b(PL) (Theorem 5.3(3)): bounded search over boolean combinations
     (union, intersection, difference — the paper's "concatenation,
     intersection and complementation") of concatenations of component
     languages, checked exactly against the goal language.

   - SWS_nr(CQ, UCQ) over query-shaped components (Theorem 5.1(3) and
     Corollary 5.2's SWS_nr(CQ^r)): via equivalent query rewriting using
     views (Rewriting.Bucket), then reified into an operational
     MDT_nr(UCQ) mediator.

   The undecidable rows (Theorem 5.1(1, 2)) get a bounded mediator search
   that never claims completeness. *)

module R = Relational
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Lang = Automata.Lang
module Regex_rewrite = Rewriting.Regex_rewrite
module Bucket = Rewriting.Bucket
module View = Rewriting.View
module Expand = Rewriting.Expand

(* ------------------------------------------------------------------ *)
(* PL languages of services and components                              *)
(* ------------------------------------------------------------------ *)

(* The vector DFA recognizes the reversed language. *)
let pl_language_nfa sws =
  Nfa.reverse (Dfa.to_nfa (Dfa.Explorer.force (Sws_pl.explore sws)))

(* Minimal-prefix language: words accepted with no accepted proper prefix.
   A component invoked by a mediator runs to completion and hands control
   back; it cannot un-consume input, so only its earliest acceptances
   matter (the "stop at the first final state" subtlety in the proof of
   Theorem 5.3(1)).

   The minimal DFA's dead state (non-final, every edge a self-loop) is
   kept, but every edge into it is dropped: a run that enters it never
   accepts, so the language is unchanged.  Left in, each copy of a view
   that [Regex_rewrite.expansion] splices in brings its dead sink, and
   the expansion's subsets collect them: at n = 2 the expansion of
   (a|b)*a(a|b)^n over views a and b determinizes to 13,938 states
   instead of 17. *)
let minimal_prefix_nfa nfa =
  let dfa = Dfa.minimize (Dfa.of_nfa nfa) in
  let num = Dfa.num_states dfa in
  let alphabet_size = Dfa.alphabet_size dfa in
  let dead =
    Array.init num (fun q ->
        (not (Dfa.is_final dfa q))
        && List.for_all
             (fun a -> Dfa.delta dfa q a = q)
             (List.init alphabet_size Fun.id))
  in
  (* copy the DFA as an NFA but cut every edge leaving a final state or
     entering the dead state *)
  let edges = ref [] in
  for q = 0 to num - 1 do
    if not (Dfa.is_final dfa q) then
      for a = 0 to alphabet_size - 1 do
        let q' = Dfa.delta dfa q a in
        if not dead.(q') then edges := (q, a, q') :: !edges
      done
  done;
  Nfa.create ~num_states:num ~alphabet_size ~starts:[ Dfa.start dfa ]
    ~finals:(Dfa.finals dfa) ~edges:!edges ~eps_edges:[]

(* ------------------------------------------------------------------ *)
(* k-prefix recognizable languages (Theorem 5.1(4, 5))                   *)
(* ------------------------------------------------------------------ *)

(* A language is k-prefix recognizable when membership is determined by the
   first k symbols.  On the minimal DFA: every state reachable by a word of
   length k must accept everything or nothing.  [k_prefix_bound] returns
   the least such k, or [None] when no k exists (some non-trivial state
   recurs at unbounded depths).

   In a minimal complete DFA a state accepts everything or nothing iff
   each of its edges is a self-loop, so a word leaves the non-trivial
   states for good.  Hence k = 0 when the start is trivial, otherwise
   1 + the longest path from the start through non-trivial states, and no
   k when such a path reaches a cycle.  One topological sort (Kahn) of the
   reachable non-trivial states finds both: linear in the DFA. *)
let k_prefix_bound dfa =
  let dfa = Dfa.minimize dfa in
  let num = Dfa.num_states dfa and sigma = Dfa.alphabet_size dfa in
  let trivial =
    Array.init num (fun q ->
        let rec loops a = a = sigma || (Dfa.delta dfa q a = q && loops (a + 1)) in
        loops 0)
  in
  let start = Dfa.start dfa in
  if trivial.(start) then Some 0
  else begin
    (* in-degrees over the edges among reachable non-trivial states *)
    let indeg = Array.make num 0 and seen = Array.make num false in
    let reached = ref 1 and stack = ref [ start ] in
    seen.(start) <- true;
    while !stack <> [] do
      let q = List.hd !stack in
      stack := List.tl !stack;
      for a = 0 to sigma - 1 do
        let p = Dfa.delta dfa q a in
        if not trivial.(p) then begin
          indeg.(p) <- indeg.(p) + 1;
          if not seen.(p) then begin
            seen.(p) <- true;
            incr reached;
            stack := p :: !stack
          end
        end
      done
    done;
    (* longest path lengths in topological order; a state on or behind a
       cycle never reaches in-degree 0 *)
    let depth = Array.make num 0 in
    let sorted = ref 0 and longest = ref 0 in
    let queue = Queue.create () in
    if indeg.(start) = 0 then Queue.add start queue;
    while not (Queue.is_empty queue) do
      let q = Queue.pop queue in
      incr sorted;
      longest := max !longest depth.(q);
      for a = 0 to sigma - 1 do
        let p = Dfa.delta dfa q a in
        if not trivial.(p) then begin
          depth.(p) <- max depth.(p) (depth.(q) + 1);
          indeg.(p) <- indeg.(p) - 1;
          if indeg.(p) = 0 then Queue.add p queue
        end
      done
    done;
    if !sorted < !reached then None else Some (1 + !longest)
  end

(* ------------------------------------------------------------------ *)
(* MDT(∨) synthesis via regular rewriting (Theorem 5.3(1, 2))            *)
(* ------------------------------------------------------------------ *)

type pl_composition = {
  mediator : Dfa.t;       (* over the component alphabet 0..m-1 *)
  component_names : string list;
  exact : bool;           (* equivalent (true) or merely maximal *)
}

(* Goal and components as languages; returns the mediator automaton when an
   equivalent MDT(∨) mediator exists, and the maximally-contained one (or
   None) otherwise. *)
let compose_or_nfa ~goal ~components () =
  let views =
    List.map (fun (_, nfa) -> minimal_prefix_nfa nfa) components
  in
  let names = List.map fst components in
  match Regex_rewrite.rewrite ~target:goal ~views () with
  | Regex_rewrite.Exact m ->
    Some { mediator = m; component_names = names; exact = true }
  | Regex_rewrite.Maximal m ->
    Some { mediator = m; component_names = names; exact = false }
  | Regex_rewrite.Empty_rewriting -> None

(* For PL *services* the composition equation carries a trailing closure: a
   mediator whose last component has answered keeps its verdict however
   much input follows, so its language is (∪ chains of minimal-prefix
   component languages) · Σ*.  The rewriting target is therefore the
   trailing core of the goal language, { w | w · Σ* ⊆ L(goal) } — on the
   goal DFA, the states from which every reachable state accepts. *)
let trailing_core_dfa dfa =
  let dfa = Dfa.minimize dfa in
  let num = Dfa.num_states dfa in
  let accept_all q =
    let seen = Array.make num false in
    let rec go p =
      if seen.(p) then true
      else begin
        seen.(p) <- true;
        Dfa.is_final dfa p
        && List.for_all
             (fun a -> go (Dfa.delta dfa p a))
             (List.init (Dfa.alphabet_size dfa) Fun.id)
      end
    in
    go q
  in
  let finals = List.filter accept_all (List.init num Fun.id) in
  let trans =
    Array.init num (fun q ->
        Array.init (Dfa.alphabet_size dfa) (fun a -> Dfa.delta dfa q a))
  in
  Dfa.create ~alphabet_size:(Dfa.alphabet_size dfa) ~start:(Dfa.start dfa)
    ~finals ~trans

let universal_nfa alphabet_size =
  Nfa.create ~num_states:1 ~alphabet_size ~starts:[ 0 ] ~finals:[ 0 ]
    ~edges:(List.init alphabet_size (fun a -> (0, a, 0)))
    ~eps_edges:[]

(* Provenance outcome for the synthesis entry points: "did a mediator come
   out" is the decision the caller sees. *)
let compose_outcome found = Obs.Trace.Decided found

(* ------------------------------------------------------------------ *)
(* The result cache (class "compose")                                  *)
(*                                                                     *)
(* The decidable synthesis procedures are pure functions of (goal,     *)
(* components) — plus the budget for the bounded MDT_b search — so     *)
(* their results are routed through [Engine.Memo] stores, keyed on     *)
(* exact canonical representations (DESIGN.md §4h).  The randomized    *)
(* bounded search at the bottom of this file is deliberately not       *)
(* cached: its sample-based verdicts are neither decisive nor          *)
(* deterministic across processes.                                     *)
(* ------------------------------------------------------------------ *)

let key tag parts = Cache.Store.Key.of_parts (tag :: parts)

let component_parts repr components =
  List.concat_map (fun (name, c) -> [ name; repr c ]) components

(* Synthesized mediators carry whole automata; a flat per-entry estimate
   keeps the weight math out of the result types. *)
let flat_weight _ = 4096

module Pl_or_memo = Engine.Memo (struct
  type t = pl_composition option

  let weight = flat_weight
end)

let pl_or_store = Pl_or_memo.create ~cls:"compose" ()

(* Snapshot persistence: [pl_composition] is pure data (a [Dfa.t] is
   ints, int arrays and an int set), so the Marshal codec is sound under
   the snapshot layer's abi stamp. *)
let () = Pl_or_memo.persist_marshal pl_or_store ~tag:"compose/pl_or"

(* CP(SWS(PL, PL), MDT(∨), SWS(PL, PL)) with a PL goal service.  The
   exactness check (closed expansion equivalent to the goal) runs on the
   lazy engine: the closed expansion is the spliced view NFA and is never
   determinized. *)
let compose_pl_or ~goal ~components () =
  Pl_or_memo.run pl_or_store ~name:"compose_pl_or"
    ~key:
      (key "comp_pl_or"
         (Sws_pl.canonical_repr goal
         :: component_parts Sws_pl.canonical_repr components))
    ~outcome:(fun r -> compose_outcome (Option.is_some r))
    ~cacheable:(fun _ -> true)
  @@ fun () ->
  Engine.run ~name:"compose_pl_or"
    ~outcome:(fun r -> compose_outcome (Option.is_some r))
  @@ fun () ->
  let goal_dfa = Dfa.of_nfa (pl_language_nfa goal) in
  let alphabet_size = Dfa.alphabet_size goal_dfa in
  let core = trailing_core_dfa goal_dfa in
  let views =
    List.map (fun (_, c) -> minimal_prefix_nfa (pl_language_nfa c)) components
  in
  let names = List.map fst components in
  let m = Regex_rewrite.maximal_rewriting ~target:(Dfa.to_nfa core) ~views in
  if Dfa.is_empty m && not (Dfa.is_empty goal_dfa) then None
  else begin
    let closed_expansion =
      Nfa.concat (Regex_rewrite.expansion ~views m) (universal_nfa alphabet_size)
    in
    let exact = Lang.equivalent closed_expansion (Dfa.to_nfa goal_dfa) in
    Some { mediator = m; component_names = names; exact }
  end

(* CP(NFA/DFA, MDT(∨), SWS(PL, PL)): the Roman-model goals of
   Theorem 5.3(2). *)
let compose_nfa_or ~goal ~components () =
  Pl_or_memo.run pl_or_store ~name:"compose_nfa_or"
    ~key:
      (key "comp_nfa_or"
         (Nfa.canonical_repr goal
         :: component_parts Nfa.canonical_repr components))
    ~outcome:(fun r -> compose_outcome (Option.is_some r))
    ~cacheable:(fun _ -> true)
  @@ fun () ->
  Engine.run ~name:"compose_nfa_or"
    ~outcome:(fun r -> compose_outcome (Option.is_some r))
  @@ fun () -> compose_or_nfa ~goal ~components ()

(* ------------------------------------------------------------------ *)
(* MDT_b(PL): bounded boolean-combination search (Theorem 5.3(3))        *)
(* ------------------------------------------------------------------ *)

type plan =
  | Invoke of string               (* one component, to completion *)
  | Chain of plan list             (* sequential invocation *)
  | Union of plan * plan           (* disjunctive synthesis *)
  | Inter of plan * plan           (* conjunctive synthesis *)
  | Minus of plan * plan           (* synthesis with negation *)

let rec pp_plan ppf = function
  | Invoke n -> Fmt.string ppf n
  | Chain ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " ; ") pp_plan) ps
  | Union (a, b) -> Fmt.pf ppf "(%a | %a)" pp_plan a pp_plan b
  | Inter (a, b) -> Fmt.pf ppf "(%a & %a)" pp_plan a pp_plan b
  | Minus (a, b) -> Fmt.pf ppf "(%a \\ %a)" pp_plan a pp_plan b

(* The language a plan denotes.  Chains and unions stay nondeterministic,
   so only [Minus] (which needs complementation) ever determinizes — and
   then only its two operands, never the whole plan. *)
let rec plan_language_nfa ~env ~alphabet_size = function
  | Invoke n -> List.assoc n env
  | Chain ps ->
    List.fold_left
      (fun acc p -> Nfa.concat acc (plan_language_nfa ~env ~alphabet_size p))
      (Nfa.epsilon alphabet_size) ps
  | Union (a, b) ->
    Nfa.union
      (plan_language_nfa ~env ~alphabet_size a)
      (plan_language_nfa ~env ~alphabet_size b)
  | Inter (a, b) ->
    Nfa.inter
      (plan_language_nfa ~env ~alphabet_size a)
      (plan_language_nfa ~env ~alphabet_size b)
  | Minus (a, b) ->
    Dfa.to_nfa
      (Dfa.diff
         (Dfa.of_nfa (plan_language_nfa ~env ~alphabet_size a))
         (Dfa.of_nfa (plan_language_nfa ~env ~alphabet_size b)))

(* A candidate's verdict on one word from its chains' verdicts on it:
   [plan_language_nfa]'s semantics, one word at a time. *)
let plan_accepts ~chain_accepts = function
  | Union (a, b) -> chain_accepts a || chain_accepts b
  | Inter (a, b) -> chain_accepts a && chain_accepts b
  | Minus (a, b) -> chain_accepts a && not (chain_accepts b)
  | (Invoke _ | Chain _) as c -> chain_accepts c

(* All nonempty component-name sequences of length <= b. *)
let chains names b =
  let rec of_length l =
    if l = 0 then [ [] ]
    else
      let shorter = of_length (l - 1) in
      List.concat_map (fun n -> List.map (fun c -> n :: c) shorter) names
  in
  List.concat_map (fun l -> of_length (l + 1)) (List.init b Fun.id)

type bounded_result =
  | Found of plan
  | No_mediator_within_bound of Engine.exhausted

module Mdtb_memo = Engine.Memo (struct
  type t = bounded_result

  let weight = flat_weight
end)

let mdtb_store = Mdtb_memo.create ~cls:"compose" ()

(* Persisted like [pl_or_store]: plans and exhausted records are pure
   data.  The only cached [No_mediator_within_bound] is the decisive
   [`Candidates] trip (see [cacheable_mdtb]), so persisting resident
   entries never persists a budget artifact. *)
let () = Mdtb_memo.persist_marshal mdtb_store ~tag:"compose/mdtb"

(* [Found] is decisive; so is running the plan space dry ([`Candidates]
   after a complete enumeration) — the space itself is in the key via
   the chain-length bound.  A meter trip (nodes/deadline) is a budget
   artifact and is never stored. *)
let cacheable_mdtb = function
  | Found _ -> true
  | No_mediator_within_bound e -> e.Engine.limit = `Candidates

(* CP(SWS(PL,PL), MDT_b(PL), SWS(PL,PL)): each component is invoked a
   bounded number of times and synthesis sizes are bounded — here realized
   as chains of length <= the budget's depth combined by one boolean
   operation.  The equivalence check against the goal language is exact
   (lazy language equivalence), so a [Found] answer is a real mediator and
   the search is complete over the plan space it enumerates; each
   candidate plan costs one budget node. *)
let compose_mdtb ?stats ?(budget = Engine.Budget.of_depth 2) ~goal ~components
    () =
  let bound =
    match budget.Engine.Budget.max_depth with Some d -> d | None -> 2
  in
  let mdtb_outcome = function
    | Found _ -> Obs.Trace.Decided true
    | No_mediator_within_bound e -> Obs.Trace.Tripped e.Engine.limit
  in
  (* The chain-length bound shapes the candidate enumeration itself, so
     it lives in the key; the budget's node/deadline axes are handled by
     the memo's subsumption rule. *)
  Mdtb_memo.run mdtb_store ?stats ~budget ~name:"compose_mdtb"
    ~key:
      (key "comp_mdtb"
         (string_of_int bound
         :: Nfa.canonical_repr goal
         :: component_parts Nfa.canonical_repr components))
    ~outcome:mdtb_outcome ~cacheable:cacheable_mdtb
  @@ fun () ->
  Engine.run ?stats ~name:"compose_mdtb" ~outcome:mdtb_outcome
  @@ fun () ->
  let meter = Engine.Meter.create ?stats budget in
  let alphabet_size = Nfa.alphabet_size goal in
  let base_chains =
    chains (List.map fst components) bound
    |> List.map (fun c -> Chain (List.map (fun n -> Invoke n) c))
  in
  let candidates =
    base_chains
    @ List.concat_map
        (fun a ->
          List.concat_map
            (fun b -> [ Union (a, b); Inter (a, b); Minus (a, b) ])
            base_chains)
        base_chains
  in
  (* The per-plan equivalence check against the goal language keeps the
     goal an NFA and runs the antichain product per plan.

     Every candidate combines at most two base chains, so each chain's NFA
     (and, for [Minus] operands, its minimized DFA: same language, smaller
     difference product) is memoized for the rest of the call instead of
     rebuilding both operands per candidate.  The memo fills on first use:
     a search whose budget trips after a plan or two builds only those
     plans' chains.

     Most candidates differ from the goal on a short word, and one such
     word refutes many plans.  So the search keeps the counterexamples of
     the plans it has refuted as test words, each with the goal's verdict
     on it, and [refute]s a candidate that disagrees with the goal on one
     of them before building its product: that word lies in the symmetric
     difference of the two languages, so the refutation is exact.  A
     plan's verdict on a word combines its chains' verdicts ([Nfa.accepts]
     on the memoized chain NFA, memoized per chain and word) by
     [plan_accepts].  Only survivors get a product and an exact check
     ([check]), whose counterexample is [learn]ed. *)
  let env = List.map (fun (n, c) -> (n, minimal_prefix_nfa c)) components in
  let memo tbl build key =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = build key in
      Hashtbl.add tbl key v;
      v
  in
  let nfas = Hashtbl.create 16 and dfas = Hashtbl.create 16 in
  let chain_nfa = memo nfas (plan_language_nfa ~env ~alphabet_size) in
  let chain_dfa c =
    memo dfas (fun c -> Dfa.minimize (Dfa.of_nfa (chain_nfa c))) c
  in
  (* [plan_language_nfa] on a candidate, with its chains memoized. *)
  let plan_nfa = function
    | Union (a, b) -> Nfa.union (chain_nfa a) (chain_nfa b)
    | Inter (a, b) -> Nfa.inter (chain_nfa a) (chain_nfa b)
    | Minus (a, b) -> Dfa.to_nfa (Dfa.diff (chain_dfa a) (chain_dfa b))
    | (Invoke _ | Chain _) as c -> chain_nfa c
  in
  (* Test words with the goal's verdict on each, newest first. *)
  let tests = ref [] and verdicts = Hashtbl.create 64 in
  let chain_accepts w c =
    memo verdicts (fun (c, w) -> Nfa.accepts (chain_nfa c) w) (c, w)
  in
  let refute plan =
    List.exists
      (fun (w, goal_accepts) ->
        plan_accepts ~chain_accepts:(chain_accepts w) plan <> goal_accepts)
      !tests
  in
  (* The exact check runs under the time the budget has left: its only
     hook stops the search once that is spent, so a trip is a deadline
     trip.  It ticks no node. *)
  let exception Out_of_time in
  let on_pair () =
    match Engine.Meter.remaining_s meter with
    | Some s when s <= 0. -> raise_notrace Out_of_time
    | _ -> ()
  in
  let check plan =
    try
      match Lang.equivalent_cex ~on_pair (plan_nfa plan) goal with
      | None -> `Equivalent
      | Some w -> `Differs (Some w)
    with
    | Not_found -> `Differs None
    | Out_of_time -> `Tripped
  in
  let deadline_trip () =
    No_mediator_within_bound
      (Engine.Meter.exhaust meter ~depth_reached:(max 0 (bound - 1))
         ~limit:`Deadline
         (Printf.sprintf "deadline of %.3gs exceeded"
            (Option.value ~default:0. budget.Engine.Budget.deadline_s)))
  in
  let learn w = tests := (w, Nfa.accepts goal w) :: !tests in
  (* Every plan is ticked, refuted or not, so [plans_checked] and every
     trip are those of checking each plan in full. *)
  let rec search = function
    | [] ->
      No_mediator_within_bound
        (Engine.Meter.exhaust meter ~depth_reached:bound ~limit:`Candidates
           (Printf.sprintf
              "no boolean combination of chains of length <= %d matches \
               the goal"
              bound))
    | plan :: rest -> (
      match Engine.Meter.check meter ~depth:bound with
      | Error e -> No_mediator_within_bound e
      | Ok () -> (
        Engine.Meter.tick meter;
        if refute plan then search rest
        else
          match check plan with
          | `Equivalent -> Found plan
          | `Tripped -> deadline_trip ()
          | `Differs w ->
            Option.iter learn w;
            search rest))
  in
  search candidates

let compose_mdtb_pl ?stats ?budget ~goal ~components () =
  compose_mdtb ?stats ?budget ~goal:(pl_language_nfa goal)
    ~components:(List.map (fun (n, c) -> (n, pl_language_nfa c)) components)
    ()

(* ------------------------------------------------------------------ *)
(* SWS_nr(CQ, UCQ): composition via query rewriting (Theorem 5.1(3))     *)
(* ------------------------------------------------------------------ *)

(* A query-shaped component (the SWS_nr(CQ^r) of Corollary 5.2): a
   single-state service whose synthesis evaluates a fixed query over the
   local database.  Its run consumes one input message and returns the
   query answer — exactly a materialized view. *)
let query_service ~db_schema query =
  let arity = R.Cq.head_arity query in
  Sws_data.make ~db_schema ~in_arity:arity ~out_arity:arity ~start:"q0"
    ~rules:[ ("q0", { Sws_def.succs = []; synth = Sws_data.Q_cq query }) ]

type cq_composition = {
  rewriting : R.Ucq.t;      (* over the view vocabulary *)
  mediator_ops : Mediator.t list; (* one operational mediator per disjunct *)
}

(* Reify one conjunctive rewriting as an operational MDT_nr(UCQ) mediator:
   q0 invokes one component per view atom; each q_i copies its message
   (the component's answer) into its action register; the root synthesis
   evaluates the rewriting disjunct over act1..actk. *)
let reify_disjunct ~db_schema ~components (d : R.Cq.t) =
  let succs =
    List.mapi (fun i (a : R.Atom.t) -> (Printf.sprintf "q%d" (i + 1), a.rel))
      d.R.Cq.body
  in
  let copy_rule arity =
    let vars = List.init arity (fun i -> R.Term.var (Printf.sprintf "x%d" i)) in
    {
      Sws_def.succs = [];
      synth = Sws_data.Q_cq (R.Cq.make ~head:vars ~body:[ R.Atom.make Sws_data.msg_rel vars ] ());
    }
  in
  let finals =
    List.mapi
      (fun i (a : R.Atom.t) ->
        let arity =
          match List.assoc_opt a.rel components with
          | Some svc -> Sws_data.out_arity svc
          | None -> List.length a.args
        in
        (Printf.sprintf "q%d" (i + 1), copy_rule arity))
      d.R.Cq.body
  in
  let synth =
    (* the disjunct with its i-th view atom read from act_i *)
    let body =
      List.mapi
        (fun i (a : R.Atom.t) -> R.Atom.make (Sws_data.act_rel i) a.args)
        d.R.Cq.body
    in
    Sws_data.Q_cq (R.Cq.make ~neqs:d.R.Cq.neqs ~head:d.R.Cq.head ~body ())
  in
  Mediator.make ~db_schema ~arity:(R.Cq.head_arity d)
    ~components:
      (List.map (fun (name, service) -> { Mediator.name; service }) components)
    ~start:"q0"
    ~rules:(("q0", { Sws_def.succs = succs; synth }) :: finals)

type cq_result =
  | Cq_composed of cq_composition
  | Cq_only_contained of R.Ucq.t
  | Cq_no_mediator

module Cq_comp_memo = Engine.Memo (struct
  type t = cq_result

  let weight = flat_weight
end)

let cq_comp_store = Cq_comp_memo.create ~cls:"compose" ()

(* Queries are pure immutable data (terms, atoms, lists), so marshaling
   is canonical for structurally equal queries; [max_atoms] bounds the
   rewriting space, so it is part of the key. *)
let cq_repr (q : R.Cq.t) = Marshal.to_string q [ Marshal.No_sharing ]

(* CP for a goal *query* (the unfolded goal service) over query-shaped
   components.  [max_atoms] is the small-model bound on rewriting size. *)
let compose_cq ?max_atoms ~db_schema ~components goal_query =
  let cq_outcome = function
    | Cq_composed _ -> Obs.Trace.Decided true
    | Cq_only_contained _ | Cq_no_mediator -> Obs.Trace.Decided false
  in
  Cq_comp_memo.run cq_comp_store ~name:"compose_cq"
    ~key:
      (key "comp_cq"
         ((match max_atoms with None -> "-" | Some n -> string_of_int n)
         :: Marshal.to_string (R.Schema.to_list db_schema)
              [ Marshal.No_sharing ]
         :: Marshal.to_string (R.Ucq.disjuncts goal_query)
              [ Marshal.No_sharing ]
         :: component_parts cq_repr components))
    ~outcome:cq_outcome ~cacheable:(fun _ -> true)
  @@ fun () ->
  Engine.run ~name:"compose_cq" ~outcome:cq_outcome
  @@ fun () ->
  let views =
    List.map (fun (name, q) -> View.make name q) components
  in
  match Bucket.equivalent_rewriting ?max_atoms views goal_query with
  | Bucket.Equivalent rw ->
    let services =
      List.map (fun (name, q) -> (name, query_service ~db_schema q)) components
    in
    let mediators =
      List.map (reify_disjunct ~db_schema ~components:services)
        (R.Ucq.disjuncts rw)
    in
    Cq_composed { rewriting = rw; mediator_ops = mediators }
  | Bucket.Only_contained rw -> Cq_only_contained rw
  | Bucket.No_rewriting -> Cq_no_mediator

(* ------------------------------------------------------------------ *)
(* Bounded search for the undecidable rows (Theorem 5.1(1, 2))           *)
(* ------------------------------------------------------------------ *)

type search_result =
  | Candidate of Mediator.t  (* agrees with the goal on all samples *)
  | None_within_bound of Engine.exhausted

(* Enumerate small mediator shapes (single invocations and 2-chains with
   copy synthesis) over the components and keep the first that matches the
   goal on randomized instance samples.  The budget governs each
   candidate's [Mediator.equiv_check] (default: 60 samples, replacing the
   old [samples] integer).  Never claims completeness: the exact problems
   are undecidable. *)
let compose_bounded_search ?stats ?(budget = Engine.Budget.of_nodes 60)
    ~db_schema ~goal ~components () =
  Engine.run ?stats ~name:"compose_bounded_search"
    ~outcome:(function
      | Candidate _ -> Obs.Trace.Decided true
      | None_within_bound e -> Obs.Trace.Tripped e.Engine.limit)
  @@ fun () ->
  let arity = Sws_data.out_arity goal in
  let copy_vars = List.init arity (fun i -> R.Term.var (Printf.sprintf "x%d" i)) in
  let copy_of rel =
    Sws_data.Q_cq (R.Cq.make ~head:copy_vars ~body:[ R.Atom.make rel copy_vars ] ())
  in
  let single name =
    Mediator.make ~db_schema ~arity
      ~components:(List.map (fun (n, s) -> { Mediator.name = n; service = s }) components)
      ~start:"q0"
      ~rules:
        [
          ("q0", { Sws_def.succs = [ ("q1", name) ]; synth = copy_of (Sws_data.act_rel 0) });
          ("q1", { Sws_def.succs = []; synth = copy_of Sws_data.msg_rel });
        ]
  in
  let chain2 n1 n2 =
    Mediator.make ~db_schema ~arity
      ~components:(List.map (fun (n, s) -> { Mediator.name = n; service = s }) components)
      ~start:"q0"
      ~rules:
        [
          ("q0", { Sws_def.succs = [ ("q1", n1) ]; synth = copy_of (Sws_data.act_rel 0) });
          ("q1", { Sws_def.succs = [ ("q2", n2) ]; synth = copy_of (Sws_data.act_rel 0) });
          ("q2", { Sws_def.succs = []; synth = copy_of Sws_data.msg_rel });
        ]
  in
  let names = List.map fst components in
  let candidates =
    List.map single names
    @ List.concat_map (fun a -> List.map (fun b -> chain2 a b) names) names
  in
  (* The first mediator in enumeration order that agrees with the goal on
     the samples wins. *)
  let ok m =
    match Mediator.equiv_check ?stats ~budget ~goal m with
    | Mediator.Agree_on_samples _ -> Some m
    | Mediator.Differ _ -> None
  in
  match List.find_map ok candidates with
  | Some m -> Candidate m
  | None ->
    None_within_bound
      {
        Engine.limit = `Candidates;
        depth_reached = 2;
        nodes_expanded = List.length candidates;
        message =
          "no single-invocation or 2-chain mediator agreed with the goal \
           on the sampled instances";
      }
