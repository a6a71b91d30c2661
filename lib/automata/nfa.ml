(* Nondeterministic finite automata with epsilon transitions, over the
   integer alphabet {0, ..., alphabet_size - 1}.  The FSA substrate for the
   Roman model (Section 3) and the PL decision procedures (Theorem 4.1(3)).

   State sets are packed bit sets ({!Repr.Bitset}) and the transition
   function is a dense array indexed by [state * alphabet_size + symbol], so
   stepping a set is a handful of word-level unions instead of a map lookup
   per (state, symbol) pair under polymorphic compare.  Per-state epsilon
   closures are memoized in the automaton (computed once, reused by every
   [eps_closure]/[step]/subset-construction call on it). *)

module Iset = Repr.Bitset

type t = {
  num_states : int;
  alphabet_size : int;
  starts : Iset.t;
  finals : Iset.t;
  trans : Iset.t array; (* trans.(q * alphabet_size + a) = successors *)
  eps : Iset.t array;   (* eps.(q) = epsilon successors *)
  closures : Iset.t option array; (* memo: per-state epsilon closure *)
}

let wrap ~num_states ~alphabet_size ~starts ~finals ~trans ~eps =
  {
    num_states;
    alphabet_size;
    starts;
    finals;
    trans;
    eps;
    closures = Array.make num_states None;
  }

(* [add_state single cells k q] adds [q] to cell [k].  A cell's first
   state is its shared singleton from [single] (sets are immutable), so
   the common one-state cell costs no set of its own. *)
let add_state single cells k q =
  let s = cells.(k) in
  cells.(k) <-
    (if Iset.is_empty s then begin
       if Iset.is_empty single.(q) then single.(q) <- Iset.singleton q;
       single.(q)
     end
     else Iset.add q s)

let create ~num_states ~alphabet_size ~starts ~finals ~edges ~eps_edges =
  let check q =
    if q < 0 || q >= num_states then invalid_arg "Nfa.create: state out of range"
  in
  List.iter check starts;
  List.iter check finals;
  let single = Array.make num_states Iset.empty in
  let trans = Array.make (num_states * alphabet_size) Iset.empty in
  List.iter
    (fun (p, a, q) ->
      check p;
      check q;
      if a < 0 || a >= alphabet_size then
        invalid_arg "Nfa.create: symbol out of range";
      add_state single trans ((p * alphabet_size) + a) q)
    edges;
  let eps = Array.make num_states Iset.empty in
  List.iter
    (fun (p, q) ->
      check p;
      check q;
      add_state single eps p q)
    eps_edges;
  wrap ~num_states ~alphabet_size ~starts:(Iset.of_list starts)
    ~finals:(Iset.of_list finals) ~trans ~eps

let num_states n = n.num_states
let alphabet_size n = n.alphabet_size
let starts n = Iset.elements n.starts
let finals n = Iset.elements n.finals
let start_set n = n.starts
let final_set n = n.finals

let successors n p a = n.trans.((p * n.alphabet_size) + a)

let eps_successors n p = n.eps.(p)

let edges n =
  let acc = ref [] in
  for p = n.num_states - 1 downto 0 do
    for a = n.alphabet_size - 1 downto 0 do
      Iset.iter (fun q -> acc := (p, a, q) :: !acc) (successors n p a)
    done
  done;
  !acc

(* Exact canonical representation of the automaton's content.  Built from
   plain int lists, never by marshaling [t] itself: the closure memo (and
   the bitsets' cached hashes) fill in lazily, so raw [t] bytes depend on
   how much the automaton has been queried. *)
let canonical_repr n =
  let eps_edges =
    List.concat
      (List.init n.num_states (fun p ->
           List.map (fun q -> (p, q)) (Iset.elements n.eps.(p))))
  in
  Marshal.to_string
    ( n.num_states,
      n.alphabet_size,
      Iset.elements n.starts,
      Iset.elements n.finals,
      edges n,
      eps_edges )
    [ Marshal.No_sharing ]

(* Memoized per-state epsilon closure (includes the state itself).  The
   memo write is a benign race when one automaton is read from several
   domains (a registered service's NFA, shared by concurrent requests):
   every filler computes the same closure, and a cell holds an immutable
   value, so a reader sees [None] or a complete closure. *)
let closure_of_state n q =
  match n.closures.(q) with
  | Some c -> c
  | None ->
    let rec go frontier closed =
      if Iset.is_empty frontier then closed
      else
        let next =
          Iset.fold (fun p acc -> Iset.union acc n.eps.(p)) frontier Iset.empty
        in
        let fresh = Iset.diff next closed in
        go fresh (Iset.union closed fresh)
    in
    let c = go (Iset.singleton q) (Iset.singleton q) in
    n.closures.(q) <- Some c;
    c

(* Results are built in one accumulator: each successor's memoized
   closure is ORed in place, so a step allocates its result set once
   rather than once per source state, and not at all when the result is
   one state's closure or empty. *)
let add_closures acc n set =
  Iset.iter (fun q -> Iset.acc_union acc (closure_of_state n q)) set

let eps_closure n set =
  if Iset.is_empty set then Iset.empty
  else begin
    let acc = Iset.acc_create ~capacity:n.num_states () in
    add_closures acc n set;
    Iset.acc_finish acc
  end

let post n p a = eps_closure n (successors n p a)

let step n set a =
  if Iset.is_empty set then Iset.empty
  else begin
    let acc = Iset.acc_create ~capacity:n.num_states () in
    Iset.iter (fun p -> add_closures acc n (successors n p a)) set;
    Iset.acc_finish acc
  end

let accepts n word =
  let final =
    List.fold_left (fun set a -> step n set a) (eps_closure n n.starts) word
  in
  Iset.intersects final n.finals

(* Emptiness: BFS over all transitions (epsilon included). *)
let is_empty n =
  let acc = Iset.acc_create ~capacity:n.num_states () in
  let rec go frontier seen =
    if Iset.is_empty frontier then true
    else if Iset.intersects frontier n.finals then false
    else begin
      Iset.iter
        (fun p ->
          Iset.acc_union acc n.eps.(p);
          for a = 0 to n.alphabet_size - 1 do
            Iset.acc_union acc (successors n p a)
          done)
        frontier;
      let fresh = Iset.diff (Iset.acc_finish acc) seen in
      go fresh (Iset.union seen fresh)
    end
  in
  go n.starts n.starts

(* ------------------------------------------------------------------ *)
(* Combinators (Thompson-style, with state renumbering)                *)
(* ------------------------------------------------------------------ *)

let empty alphabet_size =
  create ~num_states:1 ~alphabet_size ~starts:[ 0 ] ~finals:[] ~edges:[]
    ~eps_edges:[]

let epsilon alphabet_size =
  create ~num_states:1 ~alphabet_size ~starts:[ 0 ] ~finals:[ 0 ] ~edges:[]
    ~eps_edges:[]

let symbol alphabet_size a =
  create ~num_states:2 ~alphabet_size ~starts:[ 0 ] ~finals:[ 1 ]
    ~edges:[ (0, a, 1) ] ~eps_edges:[]

(* Lay the rows of [n1] and [n2] side by side, states of [n2] renumbered
   upwards by [n1.num_states]. *)
let juxtapose n1 n2 =
  let k = n1.num_states in
  let num = n1.num_states + n2.num_states in
  let a_sz = n1.alphabet_size in
  let trans = Array.make (num * a_sz) Iset.empty in
  Array.blit n1.trans 0 trans 0 (Array.length n1.trans);
  Array.iteri (fun i s -> trans.((k * a_sz) + i) <- Iset.shift k s) n2.trans;
  let eps = Array.make num Iset.empty in
  Array.blit n1.eps 0 eps 0 k;
  Array.iteri (fun i s -> eps.(k + i) <- Iset.shift k s) n2.eps;
  (num, trans, eps)

let union n1 n2 =
  if n1.alphabet_size <> n2.alphabet_size then
    invalid_arg "Nfa.union: alphabet mismatch";
  let k = n1.num_states in
  let num, trans, eps = juxtapose n1 n2 in
  wrap ~num_states:num ~alphabet_size:n1.alphabet_size
    ~starts:(Iset.union n1.starts (Iset.shift k n2.starts))
    ~finals:(Iset.union n1.finals (Iset.shift k n2.finals))
    ~trans ~eps

let concat n1 n2 =
  if n1.alphabet_size <> n2.alphabet_size then
    invalid_arg "Nfa.concat: alphabet mismatch";
  let k = n1.num_states in
  let num, trans, eps = juxtapose n1 n2 in
  let starts2 = Iset.shift k n2.starts in
  Iset.iter (fun f -> eps.(f) <- Iset.union eps.(f) starts2) n1.finals;
  wrap ~num_states:num ~alphabet_size:n1.alphabet_size ~starts:n1.starts
    ~finals:(Iset.shift k n2.finals) ~trans ~eps

let star n =
  (* fresh start state (index num_states) that is also final *)
  let s = n.num_states in
  let num = n.num_states + 1 in
  let a_sz = n.alphabet_size in
  let trans = Array.make (num * a_sz) Iset.empty in
  Array.blit n.trans 0 trans 0 (Array.length n.trans);
  let eps = Array.make num Iset.empty in
  Array.blit n.eps 0 eps 0 n.num_states;
  eps.(s) <- n.starts;
  Iset.iter (fun f -> eps.(f) <- Iset.add s eps.(f)) n.finals;
  wrap ~num_states:num ~alphabet_size:a_sz ~starts:(Iset.singleton s)
    ~finals:(Iset.add s n.finals) ~trans ~eps

let of_regex ~alphabet_size r =
  let rec go = function
    | Regex.Empty -> empty alphabet_size
    | Regex.Eps -> epsilon alphabet_size
    | Regex.Sym a -> symbol alphabet_size a
    | Regex.Alt (r, s) -> union (go r) (go s)
    | Regex.Seq (r, s) -> concat (go r) (go s)
    | Regex.Star r -> star (go r)
  in
  go r

let reverse n =
  let a_sz = n.alphabet_size in
  let single = Array.make n.num_states Iset.empty in
  let trans = Array.make (n.num_states * a_sz) Iset.empty in
  Array.iteri
    (fun i qs ->
      let p = i / a_sz and a = i mod a_sz in
      Iset.iter (fun q -> add_state single trans ((q * a_sz) + a) p) qs)
    n.trans;
  let eps = Array.make n.num_states Iset.empty in
  Array.iteri (fun p qs -> Iset.iter (fun q -> add_state single eps q p) qs) n.eps;
  wrap ~num_states:n.num_states ~alphabet_size:a_sz ~starts:n.finals
    ~finals:n.starts ~trans ~eps

(* Product intersection of epsilon-free views of the two automata. *)
let inter n1 n2 =
  if n1.alphabet_size <> n2.alphabet_size then
    invalid_arg "Nfa.inter: alphabet mismatch";
  let c1 = eps_closure n1 n1.starts and c2 = eps_closure n2 n2.starts in
  (* explore reachable pairs of states on the closed successor relation *)
  let key (p, q) = (p * n2.num_states) + q in
  let tbl = Hashtbl.create 64 in
  let edges = ref [] in
  let finals = ref [] in
  let starts = ref [] in
  let id pair =
    match Hashtbl.find_opt tbl (key pair) with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl (key pair) i;
      i
  in
  let queue = Queue.create () in
  let visit pair =
    let k = key pair in
    if not (Hashtbl.mem tbl k) then begin
      let _ = id pair in
      Queue.add pair queue
    end
  in
  Iset.iter (fun p -> Iset.iter (fun q -> visit (p, q)) c2) c1;
  Iset.iter (fun p -> Iset.iter (fun q -> starts := id (p, q) :: !starts) c2) c1;
  while not (Queue.is_empty queue) do
    let p, q = Queue.pop queue in
    let i = id (p, q) in
    if Iset.mem p n1.finals && Iset.mem q n2.finals then finals := i :: !finals;
    for a = 0 to n1.alphabet_size - 1 do
      let s1 = eps_closure n1 (successors n1 p a)
      and s2 = eps_closure n2 (successors n2 q a) in
      Iset.iter
        (fun p' ->
          Iset.iter
            (fun q' ->
              visit (p', q');
              edges := (i, a, id (p', q')) :: !edges)
            s2)
        s1
    done
  done;
  create
    ~num_states:(max 1 (Hashtbl.length tbl))
    ~alphabet_size:n1.alphabet_size ~starts:!starts ~finals:!finals
    ~edges:!edges ~eps_edges:[]

(* Epsilon removal: closed transitions and closure-adjusted finals.  The
   result recognizes the same language with an empty eps map. *)
let eps_free n =
  let edges = ref [] in
  for p = 0 to n.num_states - 1 do
    for a = 0 to n.alphabet_size - 1 do
      Iset.iter
        (fun q -> edges := (p, a, q) :: !edges)
        (step n (closure_of_state n p) a)
    done
  done;
  let finals =
    List.filter
      (fun q -> Iset.intersects (closure_of_state n q) n.finals)
      (List.init n.num_states Fun.id)
  in
  create ~num_states:n.num_states ~alphabet_size:n.alphabet_size
    ~starts:(Iset.elements n.starts) ~finals ~edges:!edges ~eps_edges:[]

(* Relabel symbols; [f a] lists the new symbols standing for [a]. *)
let map_symbols ~alphabet_size f n =
  let edges =
    List.concat_map (fun (p, a, q) -> List.map (fun b -> (p, b, q)) (f a))
      (edges n)
  in
  let eps_edges = ref [] in
  Array.iteri
    (fun p qs -> Iset.iter (fun q -> eps_edges := (p, q) :: !eps_edges) qs)
    n.eps;
  create ~num_states:n.num_states ~alphabet_size
    ~starts:(Iset.elements n.starts) ~finals:(Iset.elements n.finals) ~edges
    ~eps_edges:!eps_edges

let pp ppf n =
  Fmt.pf ppf "NFA(states=%d, alphabet=%d, starts=%a, finals=%a, edges=%d)"
    n.num_states n.alphabet_size
    Fmt.(list ~sep:(any ",") int)
    (Iset.elements n.starts)
    Fmt.(list ~sep:(any ",") int)
    (Iset.elements n.finals)
    (List.length (edges n))
