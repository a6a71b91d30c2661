(* Alternating finite automata, with arbitrary (not necessarily positive)
   Boolean transition conditions over states.  The paper's SWS(PL, PL)
   non-emptiness lower bound is by reduction from AFA emptiness [32], and the
   upper bound runs "along the same lines as AFA non-emptiness checking"
   (Theorem 4.1(3)); Example 1.1's synthesis formulas negate successor
   registers, so full Boolean conditions are needed.

   Acceptance is by backward evaluation of truth vectors; the translation to
   NFA goes through the vector DFA of the reversed language, built on the fly
   over reachable vectors only. *)

module Iset = Set.Make (Int)

type form =
  | Ftrue
  | Ffalse
  | State of int
  | Fnot of form
  | Fand of form * form
  | For of form * form

let fconj = function
  | [] -> Ftrue
  | f :: fs -> List.fold_left (fun acc g -> Fand (acc, g)) f fs

let fdisj = function
  | [] -> Ffalse
  | f :: fs -> List.fold_left (fun acc g -> For (acc, g)) f fs

let rec eval_form truth = function
  | Ftrue -> true
  | Ffalse -> false
  | State q -> truth q
  | Fnot f -> not (eval_form truth f)
  | Fand (f, g) -> eval_form truth f && eval_form truth g
  | For (f, g) -> eval_form truth f || eval_form truth g

let rec for_all_states p = function
  | Ftrue | Ffalse -> true
  | State q -> p q
  | Fnot f -> for_all_states p f
  | Fand (f, g) | For (f, g) -> for_all_states p f && for_all_states p g

type t = {
  num_states : int;
  alphabet_size : int;
  start : int;
  finals : Iset.t;
  delta : form array array; (* delta.(q).(a) *)
}

let create ~alphabet_size ~start ~finals ~delta =
  let num_states = Array.length delta in
  if num_states = 0 then invalid_arg "Afa.create: no states";
  Array.iter
    (fun row ->
      if Array.length row <> alphabet_size then
        invalid_arg "Afa.create: row width differs from alphabet";
      Array.iter
        (fun f ->
          if not (for_all_states (fun q -> q >= 0 && q < num_states) f) then
            invalid_arg "Afa.create: state out of range in formula")
        row)
    delta;
  if start < 0 || start >= num_states then invalid_arg "Afa.create: bad start";
  List.iter
    (fun q ->
      if q < 0 || q >= num_states then invalid_arg "Afa.create: bad final")
    finals;
  { num_states; alphabet_size; start; finals = Iset.of_list finals; delta }

let num_states a = a.num_states
let alphabet_size a = a.alphabet_size
let start a = a.start
let finals a = Iset.elements a.finals
let delta a q s = a.delta.(q).(s)

(* v_w(q) = "the suffix w is accepted from q"; computed right to left. *)
let accepts a word =
  let final_vector q = Iset.mem q a.finals in
  let step symbol truth q = eval_form truth a.delta.(q).(symbol) in
  let v =
    List.fold_right (fun symbol truth -> step symbol truth) word final_vector
  in
  v a.start

(* The vector DFA of the reversed language: states are truth vectors
   (encoded as the bit set of true AFA states), the start vector marks the
   finals, and reading symbol [s] rewrites vector v to
   q |-> delta(q, s) evaluated under v.  It accepts rev(w) iff the AFA
   accepts w.  Only the vectors a search reaches are materialized, and a
   vector's successors only when the search expands it: the on-the-fly
   exploration of Theorem 4.1(3). *)
let explore a =
  let module Bs = Repr.Bitset in
  (* Per symbol, only the cells that can be true: a constant-false cell
     never sets its state's bit.  The vector being stepped is unpacked
     once into [vec], which every cell's condition reads. *)
  let cols =
    Array.init a.alphabet_size (fun s ->
        List.init a.num_states (fun q -> (q, a.delta.(q).(s)))
        |> List.filter (function _, Ffalse -> false | _ -> true)
        |> Array.of_list)
  in
  let vec = Array.make a.num_states false in
  let truth q = vec.(q) in
  let acc = Bs.acc_create ~capacity:a.num_states () in
  let step set =
    Array.fill vec 0 a.num_states false;
    Bs.iter (fun q -> vec.(q) <- true) set;
    Array.init a.alphabet_size (fun s ->
        Array.iter
          (fun (q, f) -> if eval_form truth f then Bs.acc_add acc q)
          cols.(s);
        Bs.acc_finish acc)
  in
  Dfa.Explorer.create ~alphabet_size:a.alphabet_size
    ~start:(Bs.of_list (Iset.elements a.finals))
    ~final:(Bs.mem a.start) ~step

let reverse_vector_dfa a = Dfa.Explorer.force (explore a)

let to_nfa a = Nfa.reverse (Dfa.to_nfa (reverse_vector_dfa a))

(* A shortest accepted word, as a witness: the reversal of the vector
   DFA's, which explores only the vectors up to the first accepting one. *)
let shortest_word a =
  Option.map List.rev (Dfa.Explorer.shortest_word (explore a))

(* Emptiness coincides with emptiness of the reverse vector DFA, so no
   reversal or second subset construction is needed. *)
let is_empty a = Option.is_none (shortest_word a)

(* Embed an NFA (without epsilon transitions beyond its closure) as an AFA:
   disjunction over successors. *)
let of_nfa n =
  let alphabet_size = Nfa.alphabet_size n in
  (* introduce a fresh start to encode multiple NFA starts *)
  let base = Nfa.num_states n in
  let num = base + 1 in
  let start_closure = Nfa.eps_closure n (Nfa.start_set n) in
  let nfa_finals = Nfa.final_set n in
  let succ_form source_set s =
    let succ = Nfa.step n source_set s in
    fdisj (List.map (fun q -> State q) (Nfa.Iset.elements succ))
  in
  let delta =
    Array.init num (fun q ->
        Array.init alphabet_size (fun s ->
            if q = base then succ_form start_closure s
            else succ_form (Nfa.closure_of_state n q) s))
  in
  let finals =
    let base_finals =
      List.filter
        (fun q -> Nfa.Iset.intersects (Nfa.closure_of_state n q) nfa_finals)
        (List.init base Fun.id)
    in
    if Nfa.Iset.intersects start_closure nfa_finals then base :: base_finals
    else base_finals
  in
  create ~alphabet_size ~start:base ~finals ~delta

let pp_form ppf f =
  let rec go ppf = function
    | Ftrue -> Fmt.string ppf "T"
    | Ffalse -> Fmt.string ppf "F"
    | State q -> Fmt.pf ppf "q%d" q
    | Fnot f -> Fmt.pf ppf "~%a" atomic f
    | Fand (f, g) -> Fmt.pf ppf "%a & %a" atomic f atomic g
    | For (f, g) -> Fmt.pf ppf "%a | %a" atomic f atomic g
  and atomic ppf f =
    match f with
    | Ftrue | Ffalse | State _ -> go ppf f
    | _ -> Fmt.pf ppf "(%a)" go f
  in
  go ppf f

let pp ppf a =
  Fmt.pf ppf "AFA(states=%d, alphabet=%d, start=%d, finals=%a)" a.num_states
    a.alphabet_size a.start
    Fmt.(list ~sep:(any ",") int)
    (finals a)
