(* See session.mli. *)

module Regex = Automata.Regex
module Nfa = Automata.Nfa

type component = { name : string; spec : string; regex : Regex.t }

type t = {
  sid : int;
  mutable components : component list;  (* registration order *)
  mutable stats : Sws.Engine.Stats.t;
  mutable handled : int;
  mutable next_seq : int;
  mutable epoch : int;
}

let create ~sid =
  {
    sid;
    components = [];
    stats = Sws.Engine.Stats.create ();
    handled = 0;
    next_seq = 0;
    epoch = 0;
  }

let sid t = t.sid
let epoch t = t.epoch

let next_trace_id t =
  t.next_seq <- t.next_seq + 1;
  Printf.sprintf "s%d-r%d" t.sid t.next_seq

let stats t = t.stats
let absorb t sink = t.stats <- Sws.Engine.Stats.merge t.stats sink
let requests_handled t = t.handled
let bump_handled t = t.handled <- t.handled + 1

let register t ~max_components ~name ~spec =
  if name = "" then Error (`Bad "component name must be non-empty")
  else
    match Regex.parse spec with
    | exception Regex.Parse_error m ->
      Error (`Bad (Printf.sprintf "bad regex: %s" m))
    | regex ->
      let c = { name; spec; regex } in
      let exists = List.exists (fun c' -> c'.name = name) t.components in
      if exists then begin
        (* replace in place: registration order is part of the
           deterministic-response contract *)
        t.components <-
          List.map (fun c' -> if c'.name = name then c else c') t.components;
        t.epoch <- t.epoch + 1;
        Ok c
      end
      else if List.length t.components >= max_components then Error `Full
      else begin
        t.components <- t.components @ [ c ];
        t.epoch <- t.epoch + 1;
        Ok c
      end

(* Seed a fresh session from a snapshot's component registry.
   Unparsable specs are skipped, not fatal: a snapshot from a newer regex
   dialect should degrade to a partial registry. *)
let seed t ~max_components comps =
  List.fold_left
    (fun n (name, spec) ->
      match register t ~max_components ~name ~spec with
      | Ok _ -> n + 1
      | Error _ -> n)
    0 comps

let unregister t name =
  let before = List.length t.components in
  t.components <- List.filter (fun c -> c.name <> name) t.components;
  let removed = List.length t.components < before in
  if removed then t.epoch <- t.epoch + 1;
  removed

let find t name = List.find_opt (fun c -> c.name = name) t.components
let components t = t.components

let nfa_of c ~alphabet_size = Nfa.of_regex ~alphabet_size c.regex
