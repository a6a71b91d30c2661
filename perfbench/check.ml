(* Answer checks, independent of the code under test: membership is
   decided on the benchmark's own regex trees ([Re]), words are enumerated
   up to a bound, and every claim a response makes is tested against them.
   A response that fails a check counts as a failed op. *)

module J = Obs.Json
open Workload

type verdict = Decided | Tripped | Failed of string

let ( let* ) = Result.bind

let field k j = match J.member k j with Some v -> Ok v | None -> Error ("no field " ^ k)

let int_field k j =
  let* v = field k j in
  match v with J.Int n -> Ok n | _ -> Error (k ^ " is not an int")

let string_field k j =
  let* v = field k j in
  match v with J.String s -> Ok s | _ -> Error (k ^ " is not a string")

let bool_field k j =
  let* v = field k j in
  match v with J.Bool b -> Ok b | _ -> Error (k ^ " is not a bool")

let expect cond msg = if cond then Ok () else Error msg

(* Bounds of the exhaustive word checks: every word over the request's
   alphabet up to this length. *)
let bound = 4

let words_up_to k n = Automata.Word_gen.words_up_to ~alphabet_size:k n

(* Words of length at most [n] in the minimal-prefix language of [r]
   (accepted, with no accepted proper prefix): how a mediator consumes a
   component. *)
let min_prefix_words ~alphabet r n =
  List.filter
    (fun w ->
      Re.matches r w
      &&
      let rec no_proper_prefix acc = function
        | [] -> true
        | a :: rest -> (not (Re.matches r (List.rev acc))) && no_proper_prefix (a :: acc) rest
      in
      no_proper_prefix [] w)
    (words_up_to alphabet n)

(* Counterexamples travel one char per message: 'a'+i for letter i, '?'
   for a message that sets several letters, then the doubled session
   delimiter "#." of the Roman encoding.  Returns every word over the
   alphabet the message sequence can stand for: a '?' may be any letter. *)
let decode_word ~alphabet s =
  let n = String.length s in
  let body = if n >= 2 && String.sub s (n - 2) 2 = "#." then Some (String.sub s 0 (n - 2)) else None in
  match body with
  | Some body when String.for_all (fun c -> c = '?' || (c >= 'a' && Char.code c < Char.code 'a' + alphabet)) body ->
    Ok
      (String.fold_right
         (fun c words ->
           let letters = if c = '?' then List.init alphabet Fun.id else [ Char.code c - Char.code 'a' ] in
           List.concat_map (fun a -> List.map (fun w -> a :: w) words) letters)
         body [ [] ])
  | _ -> Error ("malformed word " ^ s)

let check_nonempty r ne =
  let* answer = string_field "answer" ne in
  match Re.min_len r with
  | None -> expect (answer = "no") "non_emptiness: empty language answered yes"
  | Some l ->
    let* () = expect (answer = "yes") "non_emptiness: non-empty language answered no" in
    let* wl = int_field "witness_len" ne in
    expect (wl = l + 2) (Printf.sprintf "non_emptiness: witness_len %d, shortest word %d" wl l)

let check_equiv l r res =
  let* eq = bool_field "equivalent" res in
  let k = Re.alphabet_size [ l; r ] in
  if eq then
    expect
      (List.for_all (fun w -> Re.matches l w = Re.matches r w) (words_up_to k bound))
      "equivalent answered, but a short word tells the sides apart"
  else
    let* cex = string_field "counterexample" res in
    let* ws = decode_word ~alphabet:k cex in
    let* dl = int_field "distinguishing_len" res in
    let* () = expect (dl = String.length cex) "distinguishing_len disagrees with the counterexample" in
    (* a multi-letter message is read as any of its letters, so some
       reading must be accepted by exactly one side *)
    expect
      (List.exists (fun w -> Re.matches l w <> Re.matches r w) ws)
      ("counterexample " ^ cex ^ " accepted by both or neither side")

(* k-prefix: past the first k symbols, membership never changes. *)
let check_kprefix r res =
  let* kj = field "k" res in
  match kj with
  | J.Null -> Ok ()
  | J.Int k when k >= 0 ->
    if k > 3 then Ok ()
    else
      let a = Re.alphabet_size [ r ] in
      let tails = words_up_to a 2 in
      expect
        (List.for_all
           (fun u ->
             let m = Re.matches r u in
             List.for_all (fun v -> Re.matches r (u @ v) = m) tails)
           (Automata.Word_gen.words_of_length ~alphabet_size:a k))
        (Printf.sprintf "k = %d, but membership changes after the first %d symbols" k k)
  | _ -> Error "k is neither an int nor null"

(* Every listed or-mode plan invokes components whose minimal-prefix
   languages concatenate into a subset of the goal. *)
let check_compose_or goal comps res =
  let* found = bool_field "found" res in
  if not found then Ok ()
  else
    let* plans = field "plans" res in
    let alphabet = Re.alphabet_size (goal :: List.map snd comps) in
    let mp = List.map (fun (n, r) -> (n, min_prefix_words ~alphabet r bound)) comps in
    let rec chain_words = function
      | [] -> [ [] ]
      | n :: rest ->
        let firsts = try List.assoc n mp with Not_found -> [] in
        List.concat_map
          (fun u ->
            List.filter_map
              (fun v -> if List.length u + List.length v <= bound then Some (u @ v) else None)
              (chain_words rest))
          firsts
    in
    match plans with
    | J.List ps ->
      List.fold_left
        (fun acc p ->
          let* () = acc in
          match p with
          | J.List names ->
            let names = List.filter_map J.to_string_opt names in
            let* () = expect (List.for_all (fun n -> List.mem_assoc n mp) names) "plan names an unknown component" in
            expect
              (List.for_all (Re.matches goal) (chain_words names))
              ("plan [" ^ String.concat "; " names ^ "] yields a word outside the goal")
          | _ -> Error "plan is not a list")
        (Ok ()) ps
    | _ -> Error "plans is not a list"

(* {2 mdtb plans} *)

type plan =
  | Invoke of string
  | Chain of plan list
  | Union of plan * plan
  | Inter of plan * plan
  | Minus of plan * plan

exception Bad_plan

(* Parse [Compose.pp_plan]'s output.  Component labels may contain
   regex punctuation, so they are matched as whole known tokens. *)
let parse_plan labels s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () = while !pos < n && s.[!pos] = ' ' do incr pos done in
  let eat str =
    skip_ws ();
    let l = String.length str in
    if !pos + l <= n && String.sub s !pos l = str then (pos := !pos + l; true) else false
  in
  let rec plan () =
    skip_ws ();
    match List.find_opt (fun l -> eat l) labels with
    | Some l -> Invoke l
    | None ->
      if not (eat "(") then raise Bad_plan;
      let first = plan () in
      skip_ws ();
      let r =
        match peek () with
        | Some ')' -> Chain [ first ]
        | Some ';' ->
          let rest = ref [] in
          while eat ";" do rest := plan () :: !rest done;
          Chain (first :: List.rev !rest)
        | Some '|' -> incr pos; Union (first, plan ())
        | Some '&' -> incr pos; Inter (first, plan ())
        | Some '\\' -> incr pos; Minus (first, plan ())
        | _ -> raise Bad_plan
      in
      if not (eat ")") then raise Bad_plan;
      r
  in
  match plan () with
  | p -> skip_ws (); if !pos = n then Some p else None
  | exception Bad_plan -> None

let check_compose_mdtb goal comps res =
  let* found = bool_field "found" res in
  if not found then
    let* _ = int_field "chain_bound" res in
    Ok ()
  else
    let* text = string_field "plan" res in
    let labels = List.sort (fun a b -> compare (String.length b) (String.length a)) (List.map fst comps) in
    match parse_plan labels text with
    | None -> Error ("unparsable plan " ^ text)
    | Some p ->
      let alphabet = Re.alphabet_size (goal :: List.map snd comps) in
      let mp = List.map (fun (n, r) -> (n, min_prefix_words ~alphabet r bound)) comps in
      let rec mem p w =
        match p with
        | Invoke n -> List.mem w (List.assoc n mp)
        | Chain [] -> w = []
        | Chain (q :: rest) ->
          let rec splits pre post =
            (mem q (List.rev pre) && mem (Chain rest) post)
            || match post with [] -> false | a :: post' -> splits (a :: pre) post'
          in
          splits [] w
        | Union (a, b) -> mem a w || mem b w
        | Inter (a, b) -> mem a w && mem b w
        | Minus (a, b) -> mem a w && not (mem b w)
      in
      expect
        (List.for_all (fun w -> mem p w = Re.matches goal w) (words_up_to alphabet bound))
        ("plan " ^ text ^ " and the goal disagree on a short word")

let check_result spec res =
  match spec with
  | Check r ->
    let* ne = field "non_emptiness" res in
    let* () = check_nonempty r ne in
    let* va = field "validation" res in
    let* a = string_field "answer" va in
    expect (a = "yes" || a = "no") "validation answer is neither yes nor no"
  | Equiv (l, r) -> check_equiv l r res
  | Kprefix r -> check_kprefix r res
  | Compose_or (g, cs) -> check_compose_or g cs res
  | Compose_mdtb (g, cs) -> check_compose_mdtb g cs res
  | Register (name, _) ->
    let* n = string_field "registered" res in
    expect (n = name) "register echoed another name"

(* Classify one raw response to [req]. *)
let verdict req raw =
  match J.of_string raw with
  | Error e -> Failed ("unparsable response: " ^ e)
  | Ok j -> (
    match J.member "status" j with
    | Some (J.String "ok") -> (
      match J.member "result" j with
      | None -> Failed "ok response without a result"
      | Some res -> (
        match check_result req.spec res with
        | Ok () -> Decided
        | Error m -> Failed (req.meth ^ ": " ^ m)))
    | Some (J.String "exhausted") -> (
      match req.spec with
      | Compose_mdtb _ -> Tripped
      | _ -> Failed (req.meth ^ ": budget trip on a request that carries no budget"))
    | Some (J.String s) ->
      let code = match J.member "error" j with Some e -> J.to_string e | None -> "" in
      Failed (Printf.sprintf "%s: status %s %s" req.meth s code)
    | _ -> Failed "response without a status")

(* A cheap key under which equal answers to one request collide: the raw
   response from its "status" field on (the per-op [id] and [trace_id]
   come first). *)
let answer_key raw =
  let pat = ",\"status\":" in
  let n = String.length raw and m = String.length pat in
  let rec find i = if i + m > n then 0 else if String.sub raw i m = pat then i else find (i + 1) in
  let i = find 0 in
  String.sub raw i (n - i)

(* The payload as compared across runs, job counts and traced/untraced
   runs: the response minus [id], [trace_id] and [meta]. *)
let payload raw =
  match J.of_string raw with
  | Ok (J.Obj kvs) ->
    J.to_string (J.Obj (List.filter (fun (k, _) -> not (List.mem k [ "id"; "trace_id"; "meta" ])) kvs))
  | _ -> raw
