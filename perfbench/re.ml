(* The benchmark's own regular expressions over {a, b, c}: the generator
   draws these, prints them in swsd's concrete syntax, and [Check] decides
   membership on them with Brzozowski derivatives.  Nothing here calls the
   automata library, so the answer checks share no code with the kernels
   they check. *)

type t = Emp | Eps | Sym of int | Alt of t * t | Seq of t * t | Star of t

(* Fully grouped, so distinct trees print to distinct strings and parse
   back to the same tree: unique strings mean unique cache keys. *)
let rec to_string = function
  | Emp -> "0"
  | Eps -> "1"
  | Sym a -> String.make 1 (Char.chr (Char.code 'a' + a))
  | Alt (r, s) -> "(" ^ to_string r ^ "|" ^ to_string s ^ ")"
  | Seq (r, s) -> group r ^ group s
  | Star r -> group_star r ^ "*"

and group = function Seq _ as r -> "(" ^ to_string r ^ ")" | r -> to_string r

and group_star = function
  | (Seq _ | Star _) as r -> "(" ^ to_string r ^ ")"
  | r -> to_string r

let rec max_symbol = function
  | Emp | Eps -> -1
  | Sym a -> a
  | Alt (r, s) | Seq (r, s) -> max (max_symbol r) (max_symbol s)
  | Star r -> max_symbol r

(* The alphabet swsd runs a request over: the smallest covering all its
   regexes, and never empty. *)
let alphabet_size rs = List.fold_left (fun m r -> max m (max_symbol r + 1)) 1 rs

(* Occurrences of letters. *)
let rec symbols = function
  | Emp | Eps -> 0
  | Sym _ -> 1
  | Alt (r, s) | Seq (r, s) -> symbols r + symbols s
  | Star r -> symbols r

(* {1 Membership} *)

let rec nullable = function
  | Emp | Sym _ -> false
  | Eps | Star _ -> true
  | Alt (r, s) -> nullable r || nullable s
  | Seq (r, s) -> nullable r && nullable s

let alt r s = match (r, s) with Emp, x | x, Emp -> x | _ -> Alt (r, s)

let seq r s =
  match (r, s) with Emp, _ | _, Emp -> Emp | Eps, x | x, Eps -> x | _ -> Seq (r, s)

let rec deriv a = function
  | Emp | Eps -> Emp
  | Sym b -> if a = b then Eps else Emp
  | Alt (r, s) -> alt (deriv a r) (deriv a s)
  | Seq (r, s) ->
    let d = seq (deriv a r) s in
    if nullable r then alt d (deriv a s) else d
  | Star r as st -> seq (deriv a r) st

let matches r w = nullable (List.fold_left (fun r a -> deriv a r) r w)

(* Length of a shortest word, [None] for the empty language: both are
   syntactic, so non-emptiness answers are checked exactly. *)
let rec min_len = function
  | Emp -> None
  | Eps | Star _ -> Some 0
  | Sym _ -> Some 1
  | Alt (r, s) -> (
    match (min_len r, min_len s) with
    | Some a, Some b -> Some (min a b)
    | x, None | None, x -> x)
  | Seq (r, s) -> (
    match (min_len r, min_len s) with Some a, Some b -> Some (a + b) | _ -> None)

(* {1 Generation} *)

let leaf rng =
  match Random.State.int rng 40 with 0 -> Eps | 1 -> Emp | k -> Sym (k mod 3)

(* A random tree of depth at most [d]. *)
let rec gen rng d =
  if d = 0 then leaf rng
  else
    match Random.State.int rng 10 with
    | 0 | 1 -> leaf rng
    | 2 | 3 | 4 -> Alt (gen rng (d - 1), gen rng (d - 1))
    | 5 | 6 | 7 -> Seq (gen rng (d - 1), gen rng (d - 1))
    | _ -> Star (gen rng (d - 1))

(* One language-preserving rewrite at a random node: the right-hand side
   of an equivalence request that must come back "equivalent". *)
let rec variant rng r =
  let here () =
    match (Random.State.int rng 3, r) with
    | 0, Alt (a, b) -> Alt (b, a)
    | 0, Seq (Seq (a, b), c) -> Seq (a, Seq (b, c))
    | 1, Star a -> Alt (Eps, Seq (a, Star a))
    | 1, Seq (a, Seq (b, c)) -> Seq (Seq (a, b), c)
    | _ -> Seq (r, Eps)
  in
  match r with
  | (Alt (a, b) | Seq (a, b)) when Random.State.bool rng ->
    let a, b = if Random.State.bool rng then (variant rng a, b) else (a, variant rng b) in
    (match r with Alt _ -> Alt (a, b) | _ -> Seq (a, b))
  | Star a when Random.State.bool rng -> Star (variant rng a)
  | _ -> here ()
