(* Deterministic finite automata: complete transition matrices over the
   integer alphabet.  DFAs are the Roman model's service specifications [6]
   and the normal form behind the PL equivalence procedure. *)

module Iset = Set.Make (Int)
module Itbl = Hashtbl.Make (Int)

type t = {
  alphabet_size : int;
  start : int;
  finals : Iset.t;
  trans : int array array; (* trans.(q).(a) = successor *)
}

let create ~alphabet_size ~start ~finals ~trans =
  let num_states = Array.length trans in
  if num_states = 0 then invalid_arg "Dfa.create: no states";
  Array.iter
    (fun row ->
      if Array.length row <> alphabet_size then
        invalid_arg "Dfa.create: row width differs from alphabet";
      Array.iter
        (fun q ->
          if q < 0 || q >= num_states then
            invalid_arg "Dfa.create: successor out of range")
        row)
    trans;
  if start < 0 || start >= num_states then invalid_arg "Dfa.create: bad start";
  List.iter
    (fun q ->
      if q < 0 || q >= num_states then invalid_arg "Dfa.create: bad final")
    finals;
  { alphabet_size; start; finals = Iset.of_list finals; trans }

let num_states d = Array.length d.trans
let alphabet_size d = d.alphabet_size
let start d = d.start
let finals d = Iset.elements d.finals
let is_final d q = Iset.mem q d.finals
let delta d q a = d.trans.(q).(a)

let run d word = List.fold_left (fun q a -> delta d q a) d.start word

let accepts d word = is_final d (run d word)

let complement d =
  let all = List.init (num_states d) Fun.id in
  {
    d with
    finals = Iset.of_list (List.filter (fun q -> not (is_final d q)) all);
  }

(* Pair construction; [keep] decides finality from the two components. *)
let product keep d1 d2 =
  if d1.alphabet_size <> d2.alphabet_size then
    invalid_arg "Dfa.product: alphabet mismatch";
  let n2 = num_states d2 in
  let encode p q = (p * n2) + q in
  let num = num_states d1 * n2 in
  let trans =
    Array.init num (fun code ->
        let p = code / n2 and q = code mod n2 in
        Array.init d1.alphabet_size (fun a ->
            encode (delta d1 p a) (delta d2 q a)))
  in
  let finals =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun q -> if keep (is_final d1 p) (is_final d2 q) then Some (encode p q) else None)
          (List.init n2 Fun.id))
      (List.init (num_states d1) Fun.id)
  in
  create ~alphabet_size:d1.alphabet_size ~start:(encode d1.start d2.start)
    ~finals
    ~trans

let diff d1 d2 = product (fun a b -> a && not b) d1 d2

let reachable_states d =
  let seen = Array.make (num_states d) false in
  let rec go q =
    if not seen.(q) then begin
      seen.(q) <- true;
      for a = 0 to d.alphabet_size - 1 do
        go (delta d q a)
      done
    end
  in
  go d.start;
  seen

let is_empty d =
  let reach = reachable_states d in
  not (Iset.exists (fun q -> reach.(q)) d.finals)

(* A DFA expanded on demand.  A state gets its id and its finality when
   it is first discovered, its row only when a search asks for it: the
   producer's [expand] computes the row, discovering successors through
   [discover].  An eager [t] is the explorer whose rows are all there. *)
module Explorer = struct
  type dfa = t

  let create_dfa = create

  type t = {
    alphabet_size : int;
    start : int;
    mutable final : bool array; (* by id, the first [size] cells *)
    mutable rows : int array array; (* by id; [||] until expanded *)
    mutable size : int;
    mutable computed : int;
    expand : t -> int -> int array;
  }

  let unexpanded : int array = [||]

  (* [a] doubled, the new cells [fill] *)
  let grow a fill = Array.append a (Array.make (Array.length a) fill)

  let discover x ~final =
    let i = x.size in
    if i = Array.length x.rows then begin
      x.rows <- grow x.rows unexpanded;
      x.final <- grow x.final false
    end;
    x.final.(i) <- final;
    x.size <- i + 1;
    i

  let row x i =
    let r = x.rows.(i) in
    if r != unexpanded then r
    else begin
      let r = x.expand x i in
      x.rows.(i) <- r;
      x.computed <- x.computed + 1;
      r
    end

  let is_final x i = x.final.(i)
  let rows_computed x = x.computed

  let create ~alphabet_size ~start ~final ~step =
    let module H = Hashtbl.Make (Repr.Bitset) in
    let ids = H.create 32 in
    let keys = ref (Array.make 32 start) in
    let id x key =
      match H.find ids key with
      | j -> j
      | exception Not_found ->
        let j = discover x ~final:(final key) in
        if j = Array.length !keys then keys := grow !keys start;
        !keys.(j) <- key;
        H.replace ids key j;
        j
    in
    let x =
      {
        alphabet_size;
        start = 0;
        final = Array.make 32 false;
        rows = Array.make 32 unexpanded;
        size = 0;
        computed = 0;
        expand =
          (fun x i ->
            let succs = step !keys.(i) in
            Array.init alphabet_size (fun a -> id x succs.(a)));
      }
    in
    ignore (id x start);
    x

  let of_dfa (d : dfa) =
    let n = Array.length d.trans in
    {
      alphabet_size = d.alphabet_size;
      start = d.start;
      final = Array.init n (fun q -> Iset.mem q d.finals);
      rows = d.trans;
      size = n;
      computed = 0;
      expand = (fun _ i -> d.trans.(i));
    }

  (* Every row, in id order: a FIFO discovery, so the ids are those of a
     breadth-first construction. *)
  let force x : dfa =
    let i = ref 0 in
    while !i < x.size do
      ignore (row x !i);
      incr i
    done;
    let finals = List.filter (is_final x) (List.init x.size Fun.id) in
    create_dfa ~alphabet_size:x.alphabet_size ~start:x.start ~finals
      ~trans:(Array.sub x.rows 0 x.size)

  (* Shortest accepted word by breadth-first search.  A state is tested
     when it is discovered, so the level holding the witness is expanded
     only up to it; the witness is the one a test at dequeue would give,
     the first final state in discovery order. *)
  let shortest_word x =
    let k = x.alphabet_size in
    (* pred.(q) = parent * k + symbol; -1 at the start, -2 unseen *)
    let pred = ref (Array.make (max 32 x.size) (-2)) in
    let rec word q acc =
      match !pred.(q) with
      | -1 -> acc
      | code -> word (code / k) ((code mod k) :: acc)
    in
    let exception Found of int in
    let queue = Queue.create () in
    !pred.(x.start) <- -1;
    Queue.add x.start queue;
    if is_final x x.start then Some []
    else
      match
        while not (Queue.is_empty queue) do
          let q = Queue.pop queue in
          let r = row x q in
          while x.size > Array.length !pred do
            pred := grow !pred (-2)
          done;
          for a = 0 to k - 1 do
            let q' = r.(a) in
            if !pred.(q') = -2 then begin
              !pred.(q') <- (q * k) + a;
              if is_final x q' then raise_notrace (Found q');
              Queue.add q' queue
            end
          done
        done
      with
      | () -> None
      | exception Found q -> Some (word q [])

  (* Hopcroft and Karp's pair search without the union-find: each pair is
     expanded at most once, and the visited pairs sit in a hash table, so
     memory tracks the pairs visited, not the n1 * n2 of a product
     automaton.  A level's pairs expand in discovery order, symbols in
     ascending order, so the witness does not depend on state ids.  A
     pair's code packs both ids into one int (each below 2^31). *)
  let distinguishing_word ?(on_level = ignore) ?(on_pair = ignore) x1 x2 =
    if x1.alphabet_size <> x2.alphabet_size then
      invalid_arg "Dfa.distinguishing_word: alphabet mismatch";
    let code p q = (p lsl 31) lor q in
    let mask = (1 lsl 31) - 1 in
    let differ p q = is_final x1 p <> is_final x2 q in
    (* parent pair code and symbol of each visited pair; -1 at the start *)
    let parent = Itbl.create 16 in
    let rec word c acc =
      match Itbl.find parent c with
      | -1, _ -> acc
      | prev, a -> word prev (a :: acc)
    in
    let exception Found of int in
    let rec expand depth frontier =
      if frontier <> [] then begin
        on_level depth;
        let next = ref [] in
        List.iter
          (fun c ->
            on_pair ();
            let r1 = row x1 (c lsr 31) and r2 = row x2 (c land mask) in
            for a = 0 to x1.alphabet_size - 1 do
              let p' = r1.(a) and q' = r2.(a) in
              let c' = code p' q' in
              if not (Itbl.mem parent c') then begin
                Itbl.add parent c' (c, a);
                if differ p' q' then raise_notrace (Found c');
                next := c' :: !next
              end
            done)
          frontier;
        expand (depth + 1) (List.rev !next)
      end
    in
    let start = code x1.start x2.start in
    Itbl.add parent start (-1, -1);
    if differ x1.start x2.start then Some []
    else
      match expand 1 [ start ] with
      | () -> None
      | exception Found c -> Some (word c [])
end

let shortest_word d = Explorer.shortest_word (Explorer.of_dfa d)

let distinguishing_word ?on_level ?on_pair d1 d2 =
  Explorer.distinguishing_word ?on_level ?on_pair (Explorer.of_dfa d1)
    (Explorer.of_dfa d2)

(* Moore's partition-refinement minimization (restricted to reachable
   states).  Hopcroft would be asymptotically better; Moore is simple and
   the automata here are modest. *)
let minimize d =
  let reach = reachable_states d in
  let states = List.filter (fun q -> reach.(q)) (List.init (num_states d) Fun.id) in
  let n = num_states d in
  (* class_of.(q) = current block id *)
  let class_of = Array.make n 0 in
  List.iter (fun q -> class_of.(q) <- (if is_final d q then 1 else 0)) states;
  let changed = ref true in
  while !changed do
    changed := false;
    (* signature of q: (class, [class of delta q a]) *)
    let signature q =
      (class_of.(q), List.init d.alphabet_size (fun a -> class_of.(delta d q a)))
    in
    let tbl = Hashtbl.create 16 in
    let next_id = ref 0 in
    let new_class = Array.make n 0 in
    List.iter
      (fun q ->
        let s = signature q in
        let id =
          match Hashtbl.find_opt tbl s with
          | Some id -> id
          | None ->
            let id = !next_id in
            incr next_id;
            Hashtbl.add tbl s id;
            id
        in
        new_class.(q) <- id)
      states;
    if List.exists (fun q -> new_class.(q) <> class_of.(q)) states then begin
      changed := true;
      List.iter (fun q -> class_of.(q) <- new_class.(q)) states
    end
  done;
  let num_blocks =
    1 + List.fold_left (fun m q -> max m class_of.(q)) 0 states
  in
  let repr = Array.make num_blocks (-1) in
  List.iter (fun q -> if repr.(class_of.(q)) < 0 then repr.(class_of.(q)) <- q) states;
  let trans =
    Array.init num_blocks (fun b ->
        Array.init d.alphabet_size (fun a -> class_of.(delta d repr.(b) a)))
  in
  let finals =
    List.filter (fun b -> is_final d repr.(b)) (List.init num_blocks Fun.id)
  in
  create ~alphabet_size:d.alphabet_size ~start:class_of.(d.start) ~finals ~trans

let to_nfa d =
  let edges = ref [] in
  for q = 0 to num_states d - 1 do
    for a = 0 to d.alphabet_size - 1 do
      edges := (q, a, delta d q a) :: !edges
    done
  done;
  Nfa.create ~num_states:(num_states d) ~alphabet_size:d.alphabet_size
    ~starts:[ d.start ] ~finals:(finals d) ~edges:!edges ~eps_edges:[]

(* Subset construction: the explorer over the eps-closed subsets of [n],
   forced.  A subset is keyed on its packed bit set (cached hash,
   word-wise equality), and [force] expands rows in id order, so ids are
   those of a breadth-first construction that discovers a row's
   successors in ascending symbol order. *)
let of_nfa n =
  let alphabet_size = Nfa.alphabet_size n in
  let n_finals = Nfa.final_set n in
  Explorer.force
    (Explorer.create ~alphabet_size
       ~start:(Nfa.eps_closure n (Nfa.start_set n))
       ~final:(fun s -> Nfa.Iset.intersects s n_finals)
       ~step:(fun s -> Array.init alphabet_size (Nfa.step n s)))

let pp ppf d =
  Fmt.pf ppf "DFA(states=%d, alphabet=%d, start=%d, finals=%a)" (num_states d)
    d.alphabet_size d.start
    Fmt.(list ~sep:(any ",") int)
    (finals d)
