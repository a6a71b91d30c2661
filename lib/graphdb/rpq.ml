(* (2-way) regular path queries.  A 2RPQ is a regular expression over the
   doubled alphabet of edge labels and their inverses; on a graph database it
   computes the pairs (d0, dq) of nodes connected by a path spelling a word
   of the language (Section 5.2 of the paper). *)

module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Iset = Set.Make (Int)

type t = {
  regex : Regex.t;    (* over the doubled alphabet: 0..k-1 fwd, k..2k-1 bwd *)
  num_labels : int;
}

let make ~num_labels regex =
  let doubled = 2 * num_labels in
  if Regex.max_symbol regex >= doubled then
    invalid_arg "Rpq.make: symbol outside doubled alphabet";
  { regex; num_labels }

let regex q = q.regex
let num_labels q = q.num_labels

let forward a = Regex.Sym a
let backward ~num_labels a = Regex.Sym (a + num_labels)

let to_nfa q = Nfa.of_regex ~alphabet_size:(2 * q.num_labels) q.regex

(* Product reachability: states are (node, nfa_state) pairs; from a source
   node the query reaches target v iff some pair (v, final) is reachable. *)
let eval_from g q source =
  if Lgraph.num_labels g <> q.num_labels then
    invalid_arg "Rpq.eval_from: label count mismatch";
  let nfa = to_nfa q in
  let nq = Nfa.num_states nfa in
  let key u s = (u * nq) + s in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push u s =
    if not (Hashtbl.mem seen (key u s)) then begin
      Hashtbl.add seen (key u s) ();
      Queue.add (u, s) queue
    end
  in
  Nfa.Iset.iter
    (fun s -> push source s)
    (Nfa.eps_closure nfa (Nfa.Iset.of_list (Nfa.starts nfa)));
  let finals = Nfa.Iset.of_list (Nfa.finals nfa) in
  let answers = ref Iset.empty in
  while not (Queue.is_empty queue) do
    let u, s = Queue.pop queue in
    if Nfa.Iset.mem s finals then answers := Iset.add u !answers;
    for symbol = 0 to (2 * q.num_labels) - 1 do
      let next_states = Nfa.eps_closure nfa (Nfa.successors nfa s symbol) in
      if not (Nfa.Iset.is_empty next_states) then
        Iset.iter
          (fun v -> Nfa.Iset.iter (fun s' -> push v s') next_states)
          (Lgraph.move g u symbol)
    done
  done;
  !answers

let eval g q =
  List.concat_map
    (fun u -> List.map (fun v -> (u, v)) (Iset.elements (eval_from g q u)))
    (List.init (Lgraph.num_nodes g) Fun.id)

(* Language containment of RPQs is exactly containment of the queries
   (over all graphs), decidable via the automata substrate — lazily, with
   no limits (RPQ automata are regex-sized). *)
let contained_in q1 q2 =
  q1.num_labels = q2.num_labels
  &&
  match Automata.Lang.contains (to_nfa q2) (to_nfa q1) with
  | Ok b -> b
  | Error _ -> assert false (* no limits: the exploration never trips *)

let equivalent q1 q2 = contained_in q1 q2 && contained_in q2 q1

let pp ppf q = Fmt.pf ppf "RPQ(%a)" Regex.pp q.regex
