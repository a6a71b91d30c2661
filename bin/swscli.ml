(* swscli: a command-line front end for the SWS library.

   Services are described in a small textual form on the command line or
   demonstrated from built-ins; the tool exposes the decision procedures
   and composition synthesis over regular goals.

     swscli run-travel --air 300 --hotel 120 --ticket 80
     swscli check --regex '(ab)+c'
     swscli equivalence --left '(ab)*' --right '(ab)*ab|1'
     swscli compose --goal '(ab)*' --view ab --view ba
     swscli kprefix --regex 'ab(a|b)*'  *)

module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
open Sws
open Cmdliner

let alphabet_size_of regexes =
  List.fold_left (fun m r -> max m (Regex.max_symbol r + 1)) 1 regexes

(* --stats: reset the global sink before the command, print it after. *)
let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print engine counters after the command: nodes expanded, SAT \
           calls, cache hits/misses, per-phase timings.")

(* --trace FILE: install a tracing session for the command and export it
   in Chrome trace_event format. *)
let trace_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured trace of the command (spans, budget events, \
           cache hits, latency histograms) and write it to $(docv) in \
           Chrome trace_event JSON — load it in chrome://tracing or \
           ui.perfetto.dev.")

(* --jobs N: size of the domain pool for the parallel hot paths.  The
   default comes from SWS_JOBS or Domain.recommended_domain_count; 1 runs
   every procedure on the sequential reference path. *)
let jobs_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run the parallel kernels (determinization, indexed joins, \
           candidate fan-out) on $(docv) domains.  Defaults to \\$SWS_JOBS \
           or the machine's recommended domain count; 1 forces the \
           sequential path.  Results are identical at every job count.")

let cache_cap_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-cap" ] ~docv:"N"
        ~doc:
          "Cap every result-cache class (unfold, automata, decision, \
           compose, ...) at $(docv) entries.  Defaults to the per-store \
           caps.  Caching never changes results, only repeat latency.")

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the process-lifetime result caches entirely (the \
           ablation arm).  Answers are identical either way.")

(* Bundled so every subcommand keeps its arity: [cache_cap] threads
   through as one (cap, off) value. *)
let cache_cap_flag =
  Term.(const (fun cap off -> (cap, off)) $ cache_cap_flag $ no_cache_flag)

(* --snapshot FILE: reload interned state and persistable caches before
   the command, save them back after — so repeated invocations skip the
   parse/intern/derive work the first one already paid for. *)
let snapshot_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Warm-start from the binary snapshot at $(docv) if it exists \
           (interner and persistable result caches), and write the \
           state back to $(docv) after the command.  Repeated \
           invocations with the same $(docv) answer repeated work from \
           the persisted caches instead of recomputing.  Answers are \
           identical either way.")

(* Witness words as compact strings: messages are assignments over the
   input variables, rendered one char each — 'a'+i for the one-hot mask
   of variable i ('#' when that variable is the Roman session delimiter),
   '.' for the all-false padding message, '?' for anything else. *)
let word_string sws w =
  let vars = Array.of_list (Sws_pl.input_vars sws) in
  let char_of a =
    match Sws_pl.symbol_of_assignment sws a with
    | 0 -> '.'
    | mask when mask land (mask - 1) = 0 ->
      let i = ref 0 in
      while mask lsr !i > 1 do
        incr i
      done;
      if !i < Array.length vars && vars.(!i) = "#end" then '#'
      else if !i < 26 then Char.chr (Char.code 'a' + !i)
      else '?'
    | _ -> '?'
  in
  String.init (List.length w) (fun i -> char_of (List.nth w i))

let with_obs ~stats ~trace ~jobs ~cache_cap:(cache_cap, no_cache) ~snapshot f =
  Par.Pool.set_jobs jobs;
  if no_cache then Engine.set_caching false;
  Option.iter (fun n -> Engine.cache_set_caps ~max_entries:n ()) cache_cap;
  (* Warm-start before the command runs; diagnostics go to stderr so the
     command's stdout stays byte-identical with and without the flag. *)
  (match snapshot with
  | Some path when Sys.file_exists path -> (
    match Snapshot.load ~path with
    | Ok (info, c) ->
      Fmt.epr "snapshot: loaded %s (%d bytes, %d interned, %d cache entries)@."
        path info.Snapshot.i_bytes c.Snapshot.c_symtab
        (List.fold_left (fun n (_, k) -> n + k) 0 c.Snapshot.c_caches)
    | Error m -> Fmt.epr "snapshot: %s: %s (cold start)@." path m)
  | _ -> ());
  Engine.Stats.reset Engine.Stats.global;
  Obs.Trace.clear_provenances ();
  let session = Option.map (fun _ -> Obs.Trace.install ()) trace in
  let code = f () in
  (match trace, session with
  | Some path, Some t ->
    Obs.Trace.uninstall ();
    Obs.Trace.write_chrome t path;
    Fmt.pr "trace: %d events written to %s%s@." (Obs.Trace.event_count t) path
      (match Obs.Trace.dropped t with
      | 0 -> ""
      | d -> Printf.sprintf " (%d oldest dropped)" d)
  | _ -> ());
  (match snapshot with
  | None -> ()
  | Some path -> (
    match Snapshot.save ~caches:true ~path () with
    | Ok info ->
      Fmt.epr "snapshot: wrote %s (%d bytes)@." path info.Snapshot.i_bytes
    | Error m -> Fmt.epr "snapshot: save %s: %s@." path m));
  if stats then Fmt.pr "%a@." Engine.Stats.pp Engine.Stats.global;
  code

(* ------------------------------------------------------------------ *)
(* run-travel                                                          *)
(* ------------------------------------------------------------------ *)

let run_travel air hotel ticket car =
  let db =
    Travel.catalog_db
      ~airfares:[ (101, 300); (102, 500) ]
      ~hotels:[ (201, 120); (202, 250) ]
      ~tickets:[ (301, 80) ]
      ~cars:[ (401, 60) ]
  in
  let req = Travel.request ~air ~hotel ~ticket ~car () in
  let out = Travel.booked db req in
  Fmt.pr "catalog: airfares 300/500, hotels 120/250, tickets 80, cars 60@.";
  Fmt.pr "package (airfare, hotel, ticket, car): %a@."
    Relational.Relation.pp out;
  if Relational.Relation.is_empty out then
    Fmt.pr "no package: some requirement is unsatisfiable (rollback)@.";
  0

let budgets name =
  Arg.(value & opt_all int [] & info [ name ] ~docv:"PRICE"
         ~doc:(Printf.sprintf "Requested %s price (repeatable)." name))

let run_travel_cmd =
  let doc = "Run the paper's travel-package service (Figure 1)." in
  Cmd.v
    (Cmd.info "run-travel" ~doc)
    Term.(
      const run_travel $ budgets "air" $ budgets "hotel" $ budgets "ticket"
      $ budgets "car")

(* ------------------------------------------------------------------ *)
(* check: decision problems of a Roman-model service                   *)
(* ------------------------------------------------------------------ *)

let regex_arg name =
  Arg.(
    required
    & opt (some string) None
    & info [ name ] ~docv:"REGEX"
        ~doc:"Regular expression over letters a..z ('0' empty, '1' epsilon).")

let check stats trace jobs cache_cap snapshot regex_s =
  with_obs ~stats ~trace ~jobs ~cache_cap ~snapshot @@ fun () ->
  match Regex.parse regex_s with
  | exception Regex.Parse_error m ->
    Fmt.epr "parse error: %s@." m;
    1
  | regex ->
    let alphabet_size = alphabet_size_of [ regex ] in
    let nfa = Nfa.of_regex ~alphabet_size regex in
    let sws = Roman.to_sws_pl nfa in
    Fmt.pr "Roman-model service %s as SWS(PL, PL): %d states, recursive %b@."
      regex_s
      (Sws_def.num_states (Sws_pl.def sws))
      (Sws_pl.is_recursive sws);
    (match Decision.pl_non_emptiness sws with
    | Decision.Yes w -> Fmt.pr "non-emptiness: Yes (witness: %d messages)@." (List.length w)
    | Decision.No -> Fmt.pr "non-emptiness: No@."
    | Decision.Exhausted e ->
      Fmt.pr "non-emptiness: exhausted (%a)@." Engine.pp_exhausted e);
    (match Decision.pl_validation sws ~output:false with
    | Decision.Yes w ->
      Fmt.pr "validation (output false): Yes (rejected word: %S)@."
        (word_string sws w)
    | Decision.No -> Fmt.pr "validation (output false): No@."
    | Decision.Exhausted e ->
      Fmt.pr "validation: exhausted (%a)@." Engine.pp_exhausted e);
    0

let check_cmd =
  let doc = "Decision problems for a Roman-model service given as a regex." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check $ stats_flag $ trace_flag $ jobs_flag $ cache_cap_flag
      $ snapshot_flag $ regex_arg "regex")

(* ------------------------------------------------------------------ *)
(* equivalence                                                          *)
(* ------------------------------------------------------------------ *)

let equivalence stats trace jobs cache_cap snapshot left right =
  with_obs ~stats ~trace ~jobs ~cache_cap ~snapshot @@ fun () ->
  match Regex.parse left, Regex.parse right with
  | exception Regex.Parse_error m ->
    Fmt.epr "parse error: %s@." m;
    1
  | rl, rr ->
    let alphabet_size = alphabet_size_of [ rl; rr ] in
    let sl = Roman.to_sws_pl (Nfa.of_regex ~alphabet_size rl) in
    let sr = Roman.to_sws_pl (Nfa.of_regex ~alphabet_size rr) in
    (match Decision.pl_equivalence sl sr with
    | Decision.Equivalent -> Fmt.pr "equivalent@."
    | Decision.Inequivalent w ->
      Fmt.pr "inequivalent (distinguishing sequence of %d messages: %S)@."
        (List.length w) (word_string sl w)
    | Decision.Equiv_exhausted e ->
      Fmt.pr "exhausted: %a@." Engine.pp_exhausted e);
    0

let equivalence_cmd =
  let doc = "Equivalence of two Roman-model services (as regexes)." in
  Cmd.v
    (Cmd.info "equivalence" ~doc)
    Term.(
      const equivalence $ stats_flag $ trace_flag $ jobs_flag $ cache_cap_flag
      $ snapshot_flag $ regex_arg "left" $ regex_arg "right")

(* ------------------------------------------------------------------ *)
(* compose                                                              *)
(* ------------------------------------------------------------------ *)

let compose stats trace jobs cache_cap snapshot goal views =
  with_obs ~stats ~trace ~jobs ~cache_cap ~snapshot @@ fun () ->
  match Regex.parse goal, List.map Regex.parse views with
  | exception Regex.Parse_error m ->
    Fmt.epr "parse error: %s@." m;
    1
  | goal_r, view_rs ->
    if view_rs = [] then begin
      Fmt.epr "need at least one --view@.";
      1
    end
    else begin
      let alphabet_size = alphabet_size_of (goal_r :: view_rs) in
      let goal_nfa = Nfa.of_regex ~alphabet_size goal_r in
      let components =
        List.mapi
          (fun i r -> (Printf.sprintf "V%d:%s" i (List.nth views i),
                       Nfa.of_regex ~alphabet_size r))
          view_rs
      in
      (match Compose.compose_nfa_or ~goal:goal_nfa ~components () with
      | Some { Compose.exact; mediator; component_names } ->
        Fmt.pr "%s MDT(∨) mediator found (%d states).@."
          (if exact then "equivalent" else "maximally-contained (not equivalent)")
          (Dfa.num_states mediator);
        let plans =
          List.filter (Dfa.accepts mediator)
            (Automata.Word_gen.words_up_to
               ~alphabet_size:(List.length components) 3)
        in
        List.iteri
          (fun i plan ->
            if i < 8 then
              Fmt.pr "  plan: %a@."
                Fmt.(list ~sep:(any " ; ") string)
                (List.map (fun j -> List.nth component_names j) plan))
          plans
      | None -> Fmt.pr "no mediator: no view word expands inside the goal@.");
      0
    end

let compose_cmd =
  let doc = "Synthesize an MDT(∨) mediator for a regular goal from views." in
  Cmd.v
    (Cmd.info "compose" ~doc)
    Term.(
      const compose $ stats_flag $ trace_flag $ jobs_flag $ cache_cap_flag
      $ snapshot_flag $ regex_arg "goal"
      $ Arg.(
          value & opt_all string []
          & info [ "view" ] ~docv:"REGEX" ~doc:"Available service (repeatable)."))

(* ------------------------------------------------------------------ *)
(* kprefix                                                              *)
(* ------------------------------------------------------------------ *)

let kprefix stats trace jobs cache_cap snapshot regex_s =
  with_obs ~stats ~trace ~jobs ~cache_cap ~snapshot @@ fun () ->
  match Regex.parse regex_s with
  | exception Regex.Parse_error m ->
    Fmt.epr "parse error: %s@." m;
    1
  | regex ->
    let alphabet_size = alphabet_size_of [ regex ] in
    let dfa = Dfa.of_nfa (Nfa.of_regex ~alphabet_size regex) in
    (match Compose.k_prefix_bound dfa with
    | Some k -> Fmt.pr "k-prefix recognizable with k = %d@." k
    | None -> Fmt.pr "not k-prefix recognizable for any k@.");
    0

let kprefix_cmd =
  let doc = "k-prefix recognizability of a regular language (Thm 5.1(4,5))." in
  Cmd.v (Cmd.info "kprefix" ~doc)
    Term.(
      const kprefix $ stats_flag $ trace_flag $ jobs_flag $ cache_cap_flag
      $ snapshot_flag $ regex_arg "regex")

(* ------------------------------------------------------------------ *)
(* analyze: a service from a textual specification                      *)
(* ------------------------------------------------------------------ *)

let analyze stats trace jobs cache_cap snapshot file messages =
  with_obs ~stats ~trace ~jobs ~cache_cap ~snapshot @@ fun () ->
  match Sws_parser.parse_file file with
  | exception Sws_parser.Parse_error m ->
    Fmt.epr "parse error: %s@." m;
    1
  | exception Sws_pl.Ill_formed m ->
    Fmt.epr "ill-formed service: %s@." m;
    1
  | sws ->
    Fmt.pr "service: %d states over inputs {%s}; recursive: %b%s@."
      (Sws_def.num_states (Sws_pl.def sws))
      (String.concat ", " (Sws_pl.input_vars sws))
      (Sws_pl.is_recursive sws)
      (match Sws_pl.depth sws with
      | Some d -> Printf.sprintf "; depth %d" d
      | None -> "");
    (match Decision.pl_non_emptiness sws with
    | Decision.Yes w ->
      Fmt.pr "non-emptiness: Yes — e.g. %d message(s):" (List.length w);
      List.iter
        (fun a ->
          Fmt.pr " {%s}"
            (String.concat "," (Proplogic.Prop.assignment_to_list a)))
        w;
      Fmt.pr "@."
    | Decision.No -> Fmt.pr "non-emptiness: No — the service never acts@."
    | Decision.Exhausted e ->
      Fmt.pr "non-emptiness: exhausted (%a)@." Engine.pp_exhausted e);
    if not (Sws_pl.is_recursive sws) then begin
      match Decision.pl_nr_non_emptiness sws with
      | Decision.Yes _ -> Fmt.pr "SAT procedure agrees: Yes@."
      | Decision.No -> Fmt.pr "SAT procedure agrees: No@."
      | Decision.Exhausted _ -> ()
    end;
    if messages <> [] then begin
      let inputs =
        List.map
          (fun m ->
            Proplogic.Prop.assignment_of_list
              (String.split_on_char ',' m |> List.filter (fun v -> v <> "")))
          messages
      in
      Fmt.pr "run on the given sequence: %b@." (Sws_pl.run sws inputs)
    end;
    0

let analyze_cmd =
  let doc = "Analyze an SWS(PL, PL) textual specification (see Sws_parser)." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const analyze $ stats_flag $ trace_flag $ jobs_flag $ cache_cap_flag
      $ snapshot_flag
      $ Arg.(
          required
          & opt (some file) None
          & info [ "file" ] ~docv:"FILE" ~doc:"Specification file.")
      $ Arg.(
          value & opt_all string []
          & info [ "message" ] ~docv:"VARS"
              ~doc:"Input message as comma-separated true variables (repeatable, in order)."))

(* ------------------------------------------------------------------ *)
(* explain: run the decision procedures and report their provenance     *)
(* ------------------------------------------------------------------ *)

let explain stats trace jobs cache_cap snapshot json against regex_s =
  with_obs ~stats ~trace ~jobs ~cache_cap ~snapshot @@ fun () ->
  match Regex.parse regex_s, Option.map Regex.parse against with
  | exception Regex.Parse_error m ->
    Fmt.epr "parse error: %s@." m;
    1
  | regex, against_r ->
    (* Both services share one alphabet so their input variables line up
       and the equivalence witness decodes on either side. *)
    let alphabet_size =
      alphabet_size_of (regex :: Option.to_list against_r)
    in
    let sws = Roman.to_sws_pl (Nfa.of_regex ~alphabet_size regex) in
    ignore (Decision.pl_non_emptiness sws);
    ignore (Decision.pl_validation sws ~output:false);
    if not (Sws_pl.is_recursive sws) then
      ignore (Decision.pl_nr_non_emptiness sws);
    (match against_r with
    | None -> ()
    | Some r ->
      let other = Roman.to_sws_pl (Nfa.of_regex ~alphabet_size r) in
      (match Decision.pl_equivalence sws other with
      | Decision.Equivalent ->
        Fmt.pr "against %s: equivalent@." (Option.get against)
      | Decision.Inequivalent w ->
        Fmt.pr "against %s: inequivalent (counterexample %S)@."
          (Option.get against) (word_string sws w)
      | Decision.Equiv_exhausted e ->
        Fmt.pr "against %s: exhausted (%a)@." (Option.get against)
          Engine.pp_exhausted e));
    let provs = List.rev (Obs.Trace.provenances ()) in
    if json then
      Fmt.pr "%s@."
        (Obs.Json.to_string
           (Obs.Json.List (List.map Obs.Trace.provenance_to_json provs)))
    else
      List.iter (fun p -> Fmt.pr "%a@." Obs.Trace.pp_provenance p) provs;
    0

let explain_cmd =
  let doc =
    "Run the decision procedures for a Roman-model service and print each \
     run's provenance record: outcome (decided answer, witness depth, or \
     tripped limit), depths scanned, counter deltas and duration."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const explain $ stats_flag $ trace_flag $ jobs_flag $ cache_cap_flag
      $ snapshot_flag
      $ Arg.(
          value & flag
          & info [ "json" ]
              ~doc:"Print the provenance records as a JSON array.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "against" ] ~docv:"REGEX"
              ~doc:
                "Also decide equivalence against $(docv) and print the \
                 distinguishing word, if any.")
      $ regex_arg "regex")

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "Synthesized Web services: runs, static analyses, composition." in
  let info = Cmd.info "swscli" ~version:"1.0" ~doc in
  Cmd.group info
    [
      run_travel_cmd; check_cmd; equivalence_cmd; compose_cmd; kprefix_cmd;
      analyze_cmd; explain_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
