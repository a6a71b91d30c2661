(* Packed bit sets over small non-negative ints, the state-set currency of
   the automata layer.  A set is a normalized int-array of words (no trailing
   zero word), so structural equality, ordering and hashing are word-wise
   array walks instead of balanced-tree traversals; the hash is computed once
   and cached.  Values are immutable after publication: every operation
   returns a fresh (normalized) set, and the only mutable field is the hash
   cache. *)

let word_bits = Sys.int_size

type t = {
  words : int array;
  mutable hash : int; (* cached; -1 = not yet computed *)
}

(* Allocation counter: one bump per words-array materialized, reported as a
   gauge through [Engine.Stats.snapshot] so ablations can compare churn.
   Atomic because the automata layer allocates bitsets from every domain of
   the pool; a plain ref would lose increments under contention. *)
let alloc_count = Atomic.make 0

let allocations () = Atomic.get alloc_count

let reset_allocations () = Atomic.set alloc_count 0

let empty = { words = [||]; hash = 0 }

let make_normalized words =
  let n = ref (Array.length words) in
  while !n > 0 && words.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then empty
  else begin
    Atomic.incr alloc_count;
    let words = if !n = Array.length words then words else Array.sub words 0 !n in
    { words; hash = -1 }
  end

let check_elt op i =
  if i < 0 then invalid_arg (Printf.sprintf "Bitset.%s: negative element %d" op i)

let singleton i =
  check_elt "singleton" i;
  let w = Array.make ((i / word_bits) + 1) 0 in
  w.(i / word_bits) <- 1 lsl (i mod word_bits);
  Atomic.incr alloc_count;
  { words = w; hash = -1 }

let mem i s =
  if i < 0 then false
  else
    let j = i / word_bits in
    j < Array.length s.words && s.words.(j) land (1 lsl (i mod word_bits)) <> 0

let add i s =
  check_elt "add" i;
  if mem i s then s
  else begin
    let j = i / word_bits in
    let len = max (Array.length s.words) (j + 1) in
    let w = Array.make len 0 in
    Array.blit s.words 0 w 0 (Array.length s.words);
    w.(j) <- w.(j) lor (1 lsl (i mod word_bits));
    Atomic.incr alloc_count;
    { words = w; hash = -1 }
  end

let remove i s =
  if not (mem i s) then s
  else begin
    let w = Array.copy s.words in
    w.(i / word_bits) <- w.(i / word_bits) land lnot (1 lsl (i mod word_bits));
    make_normalized w
  end

let is_empty s = Array.length s.words = 0

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let la = Array.length a.words and lb = Array.length b.words in
    let small, big = if la <= lb then a, b else b, a in
    let w = Array.copy big.words in
    for j = 0 to Array.length small.words - 1 do
      w.(j) <- w.(j) lor small.words.(j)
    done;
    Atomic.incr alloc_count;
    { words = w; hash = -1 }
  end

let inter a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  if n = 0 then empty
  else begin
    let w = Array.make n 0 in
    for j = 0 to n - 1 do
      w.(j) <- a.words.(j) land b.words.(j)
    done;
    make_normalized w
  end

let diff a b =
  if is_empty a then empty
  else begin
    let w = Array.copy a.words in
    let n = min (Array.length a.words) (Array.length b.words) in
    for j = 0 to n - 1 do
      w.(j) <- w.(j) land lnot b.words.(j)
    done;
    make_normalized w
  end

(* [not (is_empty (inter a b))] without materializing the intersection. *)
let intersects a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let rec go j = j < n && (a.words.(j) land b.words.(j) <> 0 || go (j + 1)) in
  go 0

let subset a b =
  let la = Array.length a.words and lb = Array.length b.words in
  la <= lb
  &&
  let rec go j = j >= la || (a.words.(j) land lnot b.words.(j) = 0 && go (j + 1)) in
  go 0

(* Word by word from [j]; top level, so an equality test allocates no
   closure (hash-table lookups on sets call it on every probe). *)
let rec words_equal a b j =
  j >= Array.length a || (a.(j) = b.(j) && words_equal a b (j + 1))

(* Normalization makes semantic equality plain array equality. *)
let equal a b =
  a == b
  || (Array.length a.words = Array.length b.words
     && words_equal a.words b.words 0)

let compare a b =
  let la = Array.length a.words and lb = Array.length b.words in
  if la <> lb then Int.compare la lb
  else
    let rec go j =
      if j >= la then 0
      else
        let c = Int.compare a.words.(j) b.words.(j) in
        if c <> 0 then c else go (j + 1)
    in
    go 0

let hash s =
  (* Two domains may fill the cache concurrently; both compute the same
     value from the immutable [words], and an int store cannot tear, so the
     race is benign and the published hash is always the right one. *)
  if s.hash >= 0 then s.hash
  else begin
    let h = ref 5381 in
    for j = 0 to Array.length s.words - 1 do
      (* FNV-style word mixing, truncated to non-negative. *)
      h := (((!h lsl 5) + !h) lxor s.words.(j)) land max_int
    done;
    s.hash <- !h;
    !h
  end

let cardinal s =
  let pop w =
    let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
    go w 0
  in
  Array.fold_left (fun acc w -> acc + pop w) 0 s.words

(* Index of the single set bit of [b], in constant time: the powers
   2^0 .. 2^61 have pairwise distinct residues mod 67 (2 is a primitive
   root mod the prime 67), and bit [word_bits - 1] is the sign bit, so
   [b] is negative exactly when that bit is the one set. *)
let bit_of_residue =
  let t = Array.make 67 0 in
  for i = 0 to word_bits - 2 do
    t.((1 lsl i) mod 67) <- i
  done;
  t

let bit_index b = if b < 0 then word_bits - 1 else bit_of_residue.(b mod 67)

let fold f s init =
  let acc = ref init in
  for j = 0 to Array.length s.words - 1 do
    let w = ref s.words.(j) in
    let base = j * word_bits in
    while !w <> 0 do
      acc := f (base + bit_index (!w land - !w)) !acc;
      w := !w land (!w - 1)
    done
  done;
  !acc

let iter f s = fold (fun i () -> f i) s ()

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list l = List.fold_left (fun s i -> add i s) empty l

let exists p s = fold (fun i acc -> acc || p i) s false

let for_all p s = fold (fun i acc -> acc && p i) s true

(* [shift k s] = { i + k | i in s }, word-level.  Negative shifts are not
   needed (the NFA combinators only renumber upwards). *)
let shift k s =
  if k < 0 then invalid_arg "Bitset.shift: negative shift"
  else if k = 0 || is_empty s then s
  else begin
    let wshift = k / word_bits and r = k mod word_bits in
    let n = Array.length s.words in
    let out = Array.make (n + wshift + 1) 0 in
    if r = 0 then Array.blit s.words 0 out wshift n
    else
      for j = 0 to n - 1 do
        out.(j + wshift) <- out.(j + wshift) lor (s.words.(j) lsl r);
        out.(j + wshift + 1) <- s.words.(j) lsr (word_bits - r)
      done;
    make_normalized out
  end

let choose_opt s =
  if is_empty s then None
  else
    let rec first j = if s.words.(j) <> 0 then j else first (j + 1) in
    let j = first 0 in
    let w = s.words.(j) in
    Some ((j * word_bits) + bit_index (w land -w))

(* Accumulators: one scratch word array that many ORs and bit sets write
   into in place, turned into a single normalized set at the end — so a
   union of n sets or a set of n bits costs one result allocation instead
   of one copy per operand.  A lone operand is not copied at all: it waits
   in [pending] and comes back as is unless something joins it.  The
   scratch array is allocated on first use, [capacity] words or more;
   [hi] bounds the words written to it since the last [acc_finish], which
   clears only that prefix. *)
type acc = {
  capacity : int;
  mutable scratch : int array;
  mutable hi : int;
  mutable pending : t;
}

let acc_create ?(capacity = 0) () =
  { capacity = (max 0 capacity / word_bits) + 1; scratch = [||]; hi = 0;
    pending = empty }

let reserve acc n =
  let len = Array.length acc.scratch in
  if n > len then begin
    let w = Array.make (max n (max acc.capacity (2 * len))) 0 in
    Array.blit acc.scratch 0 w 0 acc.hi;
    acc.scratch <- w
  end;
  if n > acc.hi then acc.hi <- n

let or_into acc s =
  let n = Array.length s.words in
  reserve acc n;
  let w = acc.scratch in
  for j = 0 to n - 1 do
    w.(j) <- w.(j) lor s.words.(j)
  done

let flush acc =
  if not (is_empty acc.pending) then begin
    or_into acc acc.pending;
    acc.pending <- empty
  end

let acc_add acc i =
  check_elt "acc_add" i;
  flush acc;
  let j = i / word_bits in
  reserve acc (j + 1);
  acc.scratch.(j) <- acc.scratch.(j) lor (1 lsl (i mod word_bits))

let acc_union acc s =
  if is_empty s then ()
  else if acc.hi = 0 && is_empty acc.pending then acc.pending <- s
  else begin
    flush acc;
    or_into acc s
  end

let acc_finish acc =
  if acc.hi = 0 then begin
    let s = acc.pending in
    acc.pending <- empty;
    s
  end
  else begin
    flush acc;
    let w = acc.scratch in
    let n = ref acc.hi in
    while !n > 0 && w.(!n - 1) = 0 do
      decr n
    done;
    let s =
      if !n = 0 then empty
      else begin
        Atomic.incr alloc_count;
        { words = Array.sub w 0 !n; hash = -1 }
      end
    in
    Array.fill w 0 acc.hi 0;
    acc.hi <- 0;
    s
  end

let pp ppf s =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (elements s)))
