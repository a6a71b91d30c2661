(* Regular expressions over an integer alphabet {0, ..., k-1}.  Used for the
   Roman-model services, the k-prefix-recognizable machinery of Theorem 5.1,
   the CGLV rewriting behind Theorem 5.3, and 2RPQs (Corollary 5.2). *)

type t =
  | Empty              (* the empty language *)
  | Eps                (* the empty word *)
  | Sym of int
  | Alt of t * t
  | Seq of t * t
  | Star of t

let sym a = Sym a

let alt = function
  | [] -> Empty
  | r :: rs -> List.fold_left (fun acc s -> Alt (acc, s)) r rs

let seq = function
  | [] -> Eps
  | r :: rs -> List.fold_left (fun acc s -> Seq (acc, s)) r rs

let star r = Star r

let opt r = Alt (Eps, r)

let plus r = Seq (r, Star r)

let word syms = seq (List.map sym syms)

let rec symbols = function
  | Empty | Eps -> []
  | Sym a -> [ a ]
  | Alt (r, s) | Seq (r, s) -> symbols r @ symbols s
  | Star r -> symbols r

let max_symbol r = List.fold_left max (-1) (symbols r)

let alphabet_size_of rs =
  List.fold_left (fun m r -> max m (max_symbol r + 1)) 1 rs

let rec nullable = function
  | Empty -> false
  | Eps -> true
  | Sym _ -> false
  | Alt (r, s) -> nullable r || nullable s
  | Seq (r, s) -> nullable r && nullable s
  | Star _ -> true

(* Brzozowski derivative: used as an independent membership oracle against
   which the Thompson NFA is property-tested. *)
let rec derivative a = function
  | Empty | Eps -> Empty
  | Sym b -> if a = b then Eps else Empty
  | Alt (r, s) -> Alt (derivative a r, derivative a s)
  | Seq (r, s) ->
    let d = Seq (derivative a r, s) in
    if nullable r then Alt (d, derivative a s) else d
  | Star r as whole -> Seq (derivative a r, whole)

let matches r word = nullable (List.fold_left (fun r a -> derivative a r) r word)

(* Parser for a compact concrete syntax: letters 'a'..'z' are symbols 0..25,
   '|' alternation, juxtaposition sequence, '*' '+' '?' postfix, parens group,
   '0' the empty language, '1' the empty word. *)
exception Parse_error of string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let rec parse_alt () =
    let left = parse_seq () in
    match peek () with
    | Some '|' ->
      advance ();
      Alt (left, parse_alt ())
    | _ -> left
  and parse_seq () =
    let rec go acc =
      match peek () with
      | Some c when c = '|' || c = ')' -> acc
      | None -> acc
      | Some _ -> go (Seq (acc, parse_postfix ()))
    in
    match peek () with
    | Some c when c = '|' || c = ')' -> Eps
    | None -> Eps
    | Some _ -> go (parse_postfix ())
  and parse_postfix () =
    let base = parse_atom () in
    let rec go r =
      match peek () with
      | Some '*' ->
        advance ();
        go (Star r)
      | Some '+' ->
        advance ();
        go (plus r)
      | Some '?' ->
        advance ();
        go (opt r)
      | _ -> r
    in
    go base
  and parse_atom () =
    match peek () with
    | Some '(' ->
      advance ();
      let r = parse_alt () in
      (match peek () with
      | Some ')' ->
        advance ();
        r
      | _ -> raise (Parse_error "expected ')'"))
    | Some '0' ->
      advance ();
      Empty
    | Some '1' ->
      advance ();
      Eps
    | Some c when c >= 'a' && c <= 'z' ->
      advance ();
      Sym (Char.code c - Char.code 'a')
    | Some c -> raise (Parse_error (Printf.sprintf "unexpected '%c'" c))
    | None -> raise (Parse_error "unexpected end of input")
  in
  let r = parse_alt () in
  if !pos <> n then raise (Parse_error "trailing input") else r

let rec pp ppf = function
  | Empty -> Fmt.string ppf "0"
  | Eps -> Fmt.string ppf "1"
  | Sym a ->
    if a >= 0 && a < 26 then Fmt.pf ppf "%c" (Char.chr (Char.code 'a' + a))
    else Fmt.pf ppf "<%d>" a
  | Alt (r, s) -> Fmt.pf ppf "(%a|%a)" pp r pp s
  | Seq (r, s) -> Fmt.pf ppf "%a%a" pp_tight r pp_tight s
  | Star r -> Fmt.pf ppf "%a*" pp_tight r

and pp_tight ppf r =
  match r with
  | Alt _ | Seq _ -> Fmt.pf ppf "(%a)" pp r
  | _ -> pp ppf r

let to_string r = Fmt.str "%a" pp r
