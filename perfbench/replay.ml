(* The traced replay: cold_mix's recorded request frames run in-process
   through the same public functions swsd's handlers call, one span per
   layer call.  Its answers must equal the daemon's, so the replay is
   known to do the daemon's work. *)

open Sws
module J = Obs.Json
module P = Server.Protocol
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa

let sp = Span.with_

(* The daemon's message rendering: 'a'+i per one-hot input variable, '#'
   for the session delimiter, '.' for the padding message. *)
let word_string sws w =
  let vars = Array.of_list (Sws_pl.input_vars sws) in
  let char_of a =
    match Sws_pl.symbol_of_assignment sws a with
    | 0 -> '.'
    | mask when mask land (mask - 1) = 0 ->
      let i = ref 0 in
      while mask lsr !i > 1 do incr i done;
      if !i < Array.length vars && vars.(!i) = "#end" then '#'
      else if !i < 26 then Char.chr (Char.code 'a' + !i)
      else '?'
    | _ -> '?'
  in
  String.of_seq (List.to_seq (List.map char_of w))

let outcome_json = function
  | Decision.Yes w -> Ok (J.Obj [ ("answer", J.String "yes"); ("witness_len", J.Int (List.length w)) ])
  | Decision.No -> Ok (J.Obj [ ("answer", J.String "no") ])
  | Decision.Exhausted e -> Error e

let ( let* ) = Result.bind

let max_budget = (Server.Daemon.default_config (P.Unix_sock "")).Server.Daemon.max_budget

let spec_of = function J.String s -> s | _ -> invalid_arg "replay: only inline specs"

let parse s = sp "regex.parse" (fun () -> Regex.parse s)
let nfa ~alphabet_size r = sp "nfa.of_regex" (fun () -> Nfa.of_regex ~alphabet_size r)
let roman n = sp "roman.to_sws_pl" (fun () -> Roman.to_sws_pl n)
let alphabet rs = List.fold_left (fun m r -> max m (Regex.max_symbol r + 1)) 1 rs
let member k params = Option.get (J.member k params)

(* The payload of one cold_mix request, or the budget trip. *)
let dispatch meth params : (J.t, Engine.exhausted) result =
  match meth with
  | "check" ->
    let r = parse (spec_of (member "service" params)) in
    let sws = roman (nfa ~alphabet_size:(alphabet [ r ]) r) in
    let* ne = outcome_json (sp "decision.pl_non_emptiness" (fun () -> Decision.pl_non_emptiness sws)) in
    let* va =
      outcome_json (sp "decision.pl_validation" (fun () -> Decision.pl_validation sws ~output:false))
    in
    Ok
      (J.Obj
         [ ("states", J.Int (Sws_def.num_states (Sws_pl.def sws)));
           ("recursive", J.Bool (Sws_pl.is_recursive sws));
           ("non_emptiness", ne); ("validation", va) ])
  | "equivalence" -> (
    let rl = parse (spec_of (member "left" params)) in
    let rr = parse (spec_of (member "right" params)) in
    let alphabet_size = alphabet [ rl; rr ] in
    let sl = roman (nfa ~alphabet_size rl) in
    let sr = roman (nfa ~alphabet_size rr) in
    match sp "decision.pl_equivalence" (fun () -> Decision.pl_equivalence sl sr) with
    | Decision.Equivalent -> Ok (J.Obj [ ("equivalent", J.Bool true) ])
    | Decision.Inequivalent w ->
      Ok
        (J.Obj
           [ ("equivalent", J.Bool false); ("distinguishing_len", J.Int (List.length w));
             ("counterexample", J.String (word_string sl w)) ])
    | Decision.Equiv_exhausted e -> Error e)
  | "kprefix" ->
    let r = parse (spec_of (member "service" params)) in
    let n = nfa ~alphabet_size:(alphabet [ r ]) r in
    let dfa = sp "dfa.of_nfa" (fun () -> Dfa.of_nfa n) in
    let k = sp "compose.k_prefix_bound" (fun () -> Compose.k_prefix_bound dfa) in
    Ok (J.Obj [ ("k", match k with Some k -> J.Int k | None -> J.Null) ])
  | "compose" -> (
    let goal_r = parse (spec_of (member "goal" params)) in
    let named =
      match member "components" params with
      | J.List ds -> List.mapi (fun i d -> let s = spec_of d in (Printf.sprintf "V%d:%s" i s, parse s)) ds
      | _ -> invalid_arg "replay: components"
    in
    let alphabet_size = alphabet (goal_r :: List.map snd named) in
    let goal = nfa ~alphabet_size goal_r in
    let components = List.map (fun (n, r) -> (n, nfa ~alphabet_size r)) named in
    match J.member "mode" params with
    | Some (J.String "mdtb") -> (
      let budget =
        match Engine.Budget.of_json (member "budget" params) with
        | Ok b -> Engine.Budget.combine b max_budget
        | Error e -> invalid_arg e
      in
      match sp "compose.compose_mdtb" (fun () -> Compose.compose_mdtb ~budget ~goal ~components ()) with
      | Compose.Found plan ->
        Ok (J.Obj [ ("found", J.Bool true); ("plan", J.String (Fmt.str "%a" Compose.pp_plan plan)) ])
      | Compose.No_mediator_within_bound e when e.Engine.limit = `Candidates ->
        Ok
          (J.Obj
             [ ("found", J.Bool false); ("chain_bound", J.Int e.Engine.depth_reached);
               ("plans_checked", J.Int e.Engine.nodes_expanded) ])
      | Compose.No_mediator_within_bound e -> Error e)
    | _ ->
      sp "compose.compose_nfa_or" (fun () ->
          match Compose.compose_nfa_or ~goal ~components () with
          | Some { Compose.exact; mediator; component_names } ->
            let plans =
              List.filter (Dfa.accepts mediator)
                (Automata.Word_gen.words_up_to ~alphabet_size:(List.length components) 3)
            in
            let plans = List.filteri (fun i _ -> i < 8) plans in
            Ok
              (J.Obj
                 [ ("found", J.Bool true); ("exact", J.Bool exact);
                   ("mediator_states", J.Int (Dfa.num_states mediator));
                   ( "plans",
                     J.List
                       (List.map
                          (fun plan -> J.List (List.map (fun j -> J.String (List.nth component_names j)) plan))
                          plans) ) ])
          | None -> Ok (J.Obj [ ("found", J.Bool false) ])))
  | m -> invalid_arg ("replay: method " ^ m)

(* Replay one recorded request frame; returns its response frame. *)
let one ~req frame =
  Span.request := req;
  sp "request" (fun () ->
      let json = sp "json.decode" (fun () -> J.of_string frame) in
      let r =
        sp "protocol.request_of_json" (fun () ->
            match json with Ok j -> P.request_of_json j | Error e -> Error e)
      in
      match r with
      | Error e -> invalid_arg ("replay: " ^ e)
      | Ok r ->
        let reply = sp "dispatch" (fun () -> dispatch r.P.meth r.P.params) in
        let response =
          match reply with
          | Ok payload -> P.ok_response ~id:r.P.id ~trace_id:"replay" payload
          | Error e -> P.exhausted_response ~id:r.P.id ~trace_id:"replay" e
        in
        sp "json.encode" (fun () -> J.to_string response))
