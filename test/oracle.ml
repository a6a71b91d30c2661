(* Reference evaluators for the agreement properties: each is restated
   from its definition at the value level, independently of [Cq]'s join
   and of [Seminaive]'s delta bookkeeping, and kept as slow and plain as
   the definition allows. *)

module R = Relational

(* Nested-loop join: scan the relations in textual atom order, extending
   one substitution per matching tuple, then keep the complete
   substitutions that satisfy every inequality. *)
let substs body neqs db =
  let rec go env = function
    | [] -> [ env ]
    | (a : R.Atom.t) :: rest ->
      List.concat_map
        (fun tuple ->
          let rec unify env i = function
            | [] -> Some env
            | R.Term.Const v :: tl ->
              if R.Value.equal v (R.Tuple.get tuple i) then unify env (i + 1) tl
              else None
            | R.Term.Var x :: tl ->
              Option.bind (R.Subst.extend x (R.Tuple.get tuple i) env)
                (fun env -> unify env (i + 1) tl)
          in
          match unify env 0 a.args with Some env -> go env rest | None -> [])
        (R.Relation.to_list (R.Database.find a.rel db))
  in
  go R.Subst.empty body
  |> List.filter (fun env ->
         List.for_all
           (fun (a, b) ->
             not (R.Value.equal (R.Subst.apply_term_exn env a)
                    (R.Subst.apply_term_exn env b)))
           neqs)

let cq_eval (q : R.Cq.t) db =
  List.fold_left
    (fun rel env ->
      R.Relation.add
        (R.Tuple.of_list (List.map (R.Subst.apply_term_exn env) q.head))
        rel)
    (R.Relation.empty (R.Cq.head_arity q))
    (substs q.body q.neqs db)

(* Naive datalog fixpoint: every round re-derives every rule over the
   whole database, until a round adds nothing. *)
let datalog_eval program edb =
  let module Dl = Datalog.Dl in
  let schema = R.Schema.union (Dl.schema_of program) (R.Database.schema edb) in
  let head_value env = function
    | Dl.T t -> R.Subst.apply_term_exn env t
    | Dl.Skolem (f, xs) ->
      Dl.skolem_value f
        (List.map (fun x -> R.Subst.apply_term_exn env (R.Term.var x)) xs)
  in
  let derive db (r : Dl.rule) =
    List.fold_left
      (fun (db, grew) env ->
        let t = R.Tuple.of_list (List.map (head_value env) r.head_args) in
        let rel = R.Database.find r.head_rel db in
        if R.Relation.mem t rel then (db, grew)
        else (R.Database.set r.head_rel (R.Relation.add t rel) db, true))
      (db, false) (substs r.body [] db)
  in
  let rec round db =
    let db, grew =
      List.fold_left
        (fun (db, grew) r ->
          let db, g = derive db r in
          (db, grew || g))
        (db, false) (Dl.rules program)
    in
    if grew then round db else db
  in
  round (R.Database.fold R.Database.set edb (R.Database.empty schema))

module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Afa = Automata.Afa

(* Equal state for state: the same start, finals and every row. *)
let same_dfa d e =
  Dfa.num_states d = Dfa.num_states e
  && Dfa.alphabet_size d = Dfa.alphabet_size e
  && Dfa.start d = Dfa.start e
  && Dfa.finals d = Dfa.finals e
  && List.for_all
       (fun q ->
         List.for_all
           (fun a -> Dfa.delta d q a = Dfa.delta e q a)
           (List.init (Dfa.alphabet_size d) Fun.id))
       (List.init (Dfa.num_states d) Fun.id)

(* The level-synchronised subset construction, run on one domain: every
   set of a breadth-first level is stepped on each symbol, then the
   level's successors get ids in (set id, symbol) order.  A set is final
   when it meets the NFA's finals. *)
let of_nfa n =
  let module H = Hashtbl.Make (Repr.Bitset) in
  let alphabet_size = Nfa.alphabet_size n in
  let start_set = Nfa.eps_closure n (Nfa.start_set n) in
  let ids = H.create 256 in
  H.replace ids start_set 0;
  let rows = ref [] and finals = ref [] and next_id = ref 1 in
  let rec level = function
    | [] -> ()
    | frontier ->
      let expansions =
        List.map
          (fun (set, _) -> Array.init alphabet_size (fun a -> Nfa.step n set a))
          frontier
      in
      let next = ref [] in
      List.iter2
        (fun (set, i) succs ->
          if Nfa.Iset.intersects set (Nfa.final_set n) then finals := i :: !finals;
          let row =
            Array.map
              (fun set' ->
                match H.find_opt ids set' with
                | Some j -> j
                | None ->
                  let j = !next_id in
                  incr next_id;
                  H.replace ids set' j;
                  next := (set', j) :: !next;
                  j)
              succs
          in
          rows := (i, row) :: !rows)
        frontier expansions;
      level (List.rev !next)
  in
  level [ (start_set, 0) ];
  let trans = Array.make !next_id [||] in
  List.iter (fun (i, row) -> trans.(i) <- row) !rows;
  Dfa.create ~alphabet_size ~start:0 ~finals:!finals ~trans

(* The k-prefix bound by its definition: a state is trivial when every
   state reachable from it shares its finality (one search per state),
   and k is the first breadth-first level of the minimal DFA whose states
   are all trivial, [None] past the state count. *)
let k_prefix_bound dfa =
  let dfa = Dfa.minimize dfa in
  let num = Dfa.num_states dfa in
  let trivial =
    Array.init num (fun q ->
        let seen = Array.make num false in
        let rec go p acc =
          if seen.(p) then acc
          else begin
            seen.(p) <- true;
            let acc = acc && Bool.equal (Dfa.is_final dfa p) (Dfa.is_final dfa q) in
            if acc then
              List.fold_left
                (fun acc a -> go (Dfa.delta dfa p a) acc)
                acc
                (List.init (Dfa.alphabet_size dfa) Fun.id)
            else false
          end
        in
        go q true)
  in
  let module Iset = Set.Make (Int) in
  let rec scan frontier k =
    if k > num then None
    else if Iset.for_all (fun q -> trivial.(q)) frontier then Some k
    else
      let next =
        Iset.fold
          (fun q acc ->
            List.fold_left
              (fun acc a -> Iset.add (Dfa.delta dfa q a) acc)
              acc
              (List.init (Dfa.alphabet_size dfa) Fun.id))
          frontier Iset.empty
      in
      scan next (k + 1)
  in
  scan (Iset.singleton (Dfa.start dfa)) 0

(* The eager vector-DFA builder: a FIFO over truth vectors (sorted lists
   of the true AFA states), each row computed as its vector is dequeued,
   so ids follow breadth-first discovery.  Vector v steps on symbol s to
   { q | delta(q, s) holds under v }; the start vector is the finals, and
   a vector is final when it holds the AFA's start state. *)
let reverse_vector_dfa a =
  let n = Afa.num_states a and k = Afa.alphabet_size a in
  let ids = Hashtbl.create 64 in
  let start = Afa.finals a in
  Hashtbl.replace ids start 0;
  let rows = ref [] and finals = ref [] and next_id = ref 1 in
  let queue = Queue.create () in
  Queue.add (start, 0) queue;
  while not (Queue.is_empty queue) do
    let v, i = Queue.pop queue in
    if List.mem (Afa.start a) v then finals := i :: !finals;
    let row =
      Array.init k (fun s ->
          let v' =
            List.filter
              (fun q -> Afa.eval_form (fun p -> List.mem p v) (Afa.delta a q s))
              (List.init n Fun.id)
          in
          match Hashtbl.find_opt ids v' with
          | Some j -> j
          | None ->
            let j = !next_id in
            incr next_id;
            Hashtbl.replace ids v' j;
            Queue.add (v', j) queue;
            j)
    in
    rows := (i, row) :: !rows
  done;
  let trans = Array.make !next_id [||] in
  List.iter (fun (i, row) -> trans.(i) <- row) !rows;
  Dfa.create ~alphabet_size:k ~start:0 ~finals:!finals ~trans

(* Eager language operations on complete DFAs, by the pair construction
   and full determinization: the plain reference the lazy engines
   ([Lang], [Dfa.Explorer.distinguishing_word]) are checked against. *)
module Eager = struct
  let inter d1 d2 = Dfa.product ( && ) d1 d2
  let union d1 d2 = Dfa.product ( || ) d1 d2

  (* [contains a b] iff L(b) is a subset of L(a). *)
  let contains d1 d2 = Dfa.is_empty (Dfa.diff d2 d1)

  (* A shortest word of L(b) \ L(a): [None] iff [contains a b]. *)
  let contains_cex d1 d2 = Dfa.shortest_word (Dfa.diff d2 d1)
  let equivalent d1 d2 = contains d1 d2 && contains d2 d1
  let nfa_equivalent n1 n2 = equivalent (Dfa.of_nfa n1) (Dfa.of_nfa n2)
  let nfa_contains n1 n2 = contains (Dfa.of_nfa n1) (Dfa.of_nfa n2)
  let nfa_contains_cex n1 n2 = contains_cex (Dfa.of_nfa n1) (Dfa.of_nfa n2)
end

(* The alternating automaton of an SWS(PL, PL) service's language, cell by
   cell from the run semantics: AFA state 2i + m is the service's i-th
   state with message bit m.  On symbol s, a final state's cell is its
   synthesis query under [Prop.eval] (the symbol's assignment, plus
   [msg_var] when m is set); an internal state's is its synthesis query
   with act_i replaced by state 2j + 1 for child j when the transition
   query holds, false otherwise.  Only the start state proceeds with its
   message unset, and no state is final: a node past the end of the
   input gets the empty action. *)
let to_afa sws =
  let module Prop = Proplogic.Prop in
  let module Sws_pl = Sws.Sws_pl in
  let module Sws_def = Sws.Sws_def in
  let def = Sws_pl.def sws in
  let states = Sws_def.states def in
  let index q =
    let rec go i = function
      | [] -> invalid_arg "Oracle.to_afa: unknown state"
      | q' :: rest -> if String.equal q q' then i else go (i + 1) rest
    in
    go 0 states
  in
  let start = Sws_def.start def in
  let cell q ~msg s =
    let env =
      let a = Sws_pl.assignment_of_symbol sws s in
      if msg then Prop.Sset.add Sws_pl.msg_var a else a
    in
    let rule = Sws_def.rule def q in
    let rec form = function
      | Prop.True -> Afa.Ftrue
      | Prop.False -> Afa.Ffalse
      | Prop.Var x ->
        let rec child i = function
          | [] -> Afa.Ffalse
          | (q_i, phi_i) :: rest ->
            if not (String.equal x (Sws_pl.act_var i)) then child (i + 1) rest
            else if Prop.eval env phi_i then Afa.State ((2 * index q_i) + 1)
            else Afa.Ffalse
        in
        child 0 rule.Sws_def.succs
      | Prop.Not f -> Afa.Fnot (form f)
      | Prop.And (f, g) -> Afa.Fand (form f, form g)
      | Prop.Or (f, g) -> Afa.For (form f, form g)
      | Prop.Implies (f, g) -> Afa.For (Afa.Fnot (form f), form g)
      | Prop.Iff (f, g) ->
        Afa.For
          (Afa.Fand (form f, form g), Afa.Fand (Afa.Fnot (form f), Afa.Fnot (form g)))
    in
    match rule.Sws_def.succs with
    | [] -> if Prop.eval env rule.Sws_def.synth then Afa.Ftrue else Afa.Ffalse
    | _ -> form rule.Sws_def.synth
  in
  let k = Sws_pl.alphabet_size sws in
  let delta =
    Array.of_list
      (List.concat_map
         (fun q ->
           [ Array.init k (fun s ->
                 if String.equal q start then cell q ~msg:false s else Afa.Ffalse);
             Array.init k (fun s -> cell q ~msg:true s) ])
         states)
  in
  Afa.create ~alphabet_size:k ~start:(2 * index start) ~finals:[] ~delta
