(* Rewriting of regular languages using view languages, after
   Calvanese-De Giacomo-Lenzerini-Vardi [8] ("Rewriting of regular
   expressions and regular path queries").  Theorem 5.3 reduces composition
   synthesis with MDT(∨) mediators to exactly this rewriting problem, and
   Theorem 5.1(4,5) uses it through the k-prefix machinery.

   Given a target language L0 (an NFA over the base alphabet) and view
   languages E1..Ek, the maximal rewriting M over the view alphabet
   {0..k-1} is

       M = { Vi1 ... Vim | E_i1 · ... · E_im  ⊆  L0 },

   computed as the complement of the "bad" automaton B: B accepts a view
   word when some expansion of it escapes L0, so B is built over the
   complement DFA D of L0 with  q --Vi--> q'  iff some u ∈ L(Ei) drives D
   from q to q'.  The rewriting is exact (an equivalent rewriting) iff its
   expansion covers L0. *)

module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Regex = Automata.Regex

(* The relation { (q, q') | exists u in L(view) : delta*(q, u) = q' } of a
   complete DFA, by BFS over the product with the view NFA. *)
let word_relation dfa view_nfa =
  let nq = Dfa.num_states dfa in
  let pairs = ref [] in
  for q = 0 to nq - 1 do
    (* product reachability from (q, starts) *)
    let seen = Hashtbl.create 32 in
    let queue = Queue.create () in
    let push p s =
      if not (Hashtbl.mem seen (p, s)) then begin
        Hashtbl.add seen (p, s) ();
        Queue.add (p, s) queue
      end
    in
    Nfa.Iset.iter
      (fun s -> push q s)
      (Nfa.eps_closure view_nfa (Nfa.Iset.of_list (Nfa.starts view_nfa)));
    let finals = Nfa.Iset.of_list (Nfa.finals view_nfa) in
    let reached = Hashtbl.create 8 in
    while not (Queue.is_empty queue) do
      let p, s = Queue.pop queue in
      if Nfa.Iset.mem s finals then Hashtbl.replace reached p ();
      for a = 0 to Dfa.alphabet_size dfa - 1 do
        let p' = Dfa.delta dfa p a in
        Nfa.Iset.iter
          (fun s' -> push p' s')
          (Nfa.eps_closure view_nfa (Nfa.successors view_nfa s a))
      done
    done;
    Hashtbl.iter (fun p () -> pairs := (q, p) :: !pairs) reached
  done;
  !pairs

(* Maximal rewriting as a DFA over the view alphabet {0..k-1}. *)
let maximal_rewriting ~target ~views =
  let d0 = Dfa.of_nfa target in
  let comp = Dfa.complement d0 in
  let k = List.length views in
  let edges =
    List.concat
      (List.mapi
         (fun i view ->
           List.map (fun (q, q') -> (q, i, q')) (word_relation comp view))
         views)
  in
  let bad =
    Nfa.create ~num_states:(Dfa.num_states comp) ~alphabet_size:k
      ~starts:[ Dfa.start comp ] ~finals:(Dfa.finals comp) ~edges ~eps_edges:[]
  in
  Dfa.minimize (Dfa.complement (Dfa.of_nfa bad))

(* Expansion of a language over the view alphabet: substitute each view
   symbol by its language.  Built by splicing a copy of each view NFA onto
   every edge of the rewriting automaton. *)
let expansion ~views rewriting_dfa =
  let base_alphabet =
    match views with
    | [] -> 1
    | v :: _ -> Nfa.alphabet_size v
  in
  let r_states = Dfa.num_states rewriting_dfa in
  (* First copy the rewriting automaton's states; then, per edge (p, Vi, q),
     append a shifted copy of view i's NFA with eps edges p -> starts and
     finals -> q. *)
  let next = ref r_states in
  let edges = ref [] in
  let eps_edges = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun i ->
          let q = Dfa.delta rewriting_dfa p i in
          let view = List.nth views i in
          let base = !next in
          next := !next + Nfa.num_states view;
          List.iter
            (fun (u, a, v) -> edges := (base + u, a, base + v) :: !edges)
            (Nfa.edges view);
          Nfa.Iset.iter
            (fun u ->
              Nfa.Iset.iter
                (fun v -> eps_edges := (base + u, base + v) :: !eps_edges)
                (Nfa.eps_successors view u))
            (Nfa.Iset.of_list (List.init (Nfa.num_states view) Fun.id));
          List.iter
            (fun s -> eps_edges := (p, base + s) :: !eps_edges)
            (Nfa.starts view);
          List.iter
            (fun f -> eps_edges := (base + f, q) :: !eps_edges)
            (Nfa.finals view))
        (List.init (Dfa.alphabet_size rewriting_dfa) Fun.id))
    (List.init r_states Fun.id);
  Nfa.create ~num_states:!next ~alphabet_size:base_alphabet
    ~starts:[ Dfa.start rewriting_dfa ]
    ~finals:(Dfa.finals rewriting_dfa)
    ~edges:!edges ~eps_edges:!eps_edges

type result =
  | Exact of Dfa.t      (* equivalent rewriting: expansion = target *)
  | Maximal of Dfa.t    (* strictly contained; no equivalent one exists *)
  | Empty_rewriting     (* no view word expands inside the target at all *)

(* By [8]: the maximal rewriting's expansion is always contained in the
   target; an equivalent rewriting exists iff it covers the target too.
   The covering check is the one language decision here that does not
   need the complement DFA already built above, so it runs on the lazy
   engine (the expansion NFA is the large side). *)
let rewrite ~target ~views () =
  let m = maximal_rewriting ~target ~views in
  if Dfa.is_empty m then
    if Nfa.is_empty target then Exact m else Empty_rewriting
  else
    let e = expansion ~views m in
    if Automata.Lang.contains e target then Exact m else Maximal m
