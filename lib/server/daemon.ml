(* See daemon.mli. *)

module J = Obs.Json
module P = Protocol
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
open Sws

type config = {
  addr : Protocol.addr;
  jobs : int option;
  max_inflight : int;
  max_frame_bytes : int;
  max_json_depth : int;
  max_spec_len : int;
  max_components : int;
  default_budget : Engine.Budget.t;
  max_budget : Engine.Budget.t;
  cache_cap : int option;
  metrics : bool;
  metrics_port : int option;
  trace_sample : int option;
  trace_dir : string option;
  slow_ms : float option;
  snapshot : string option;
}

let default_config addr =
  {
    addr;
    jobs = None;
    max_inflight = 64;
    max_frame_bytes = Protocol.default_max_frame;
    max_json_depth = Protocol.max_wire_depth;
    max_spec_len = 2048;
    max_components = 64;
    (* a request that brings no budget still cannot hang: three chain
       lengths, 200k candidates, five wall-clock seconds *)
    default_budget =
      Engine.Budget.make ~max_depth:3 ~max_nodes:200_000 ~deadline_s:5. ();
    max_budget =
      Engine.Budget.make ~max_depth:6 ~max_nodes:2_000_000 ~deadline_s:30. ();
    cache_cap = None;
    metrics = true;
    metrics_port = None;
    trace_sample = None;
    trace_dir = None;
    (* a second of wall clock on one request is news worth a log line *)
    slow_ms = Some 1000.;
    snapshot = None;
  }

(* ------------------------------------------------------------------ *)
(* Reply caches                                                        *)
(*                                                                     *)
(* Two layers over the process-lifetime store (DESIGN.md §4h).  L1     *)
(* (class "server_l1") keys the raw request — session id, method and   *)
(* rendered params — and stamps entries with the session's registry    *)
(* epoch, so any register/unregister/re-register invalidates every     *)
(* reply that might have resolved a component reference.  L2 (class    *)
(* "server_l2") keys the content-resolved request — the parsed regex   *)
(* ASTs and the effective budget — so equal work is shared across      *)
(* sessions whatever names their registries use.  Only definitive      *)
(* [`Ok] payloads are stored: errors, budget trips and close replies   *)
(* always recompute.  The cached value is the payload alone — the      *)
(* envelope (trace id, meta) stays per-request.                        *)
(* ------------------------------------------------------------------ *)

module Reply_store = Cache.Store.Make (struct
  type t = J.t

  let weight j = String.length (J.to_string j)
end)

let l1_store = Reply_store.create ~max_entries:1024 ~cls:"server_l1" ()
let l2_store = Reply_store.create ~max_entries:1024 ~cls:"server_l2" ()

(* Snapshot persistence for L2 only.  Payloads are JSON, so the codec is
   self-describing and survives binary upgrades ([abi_sensitive:false]).
   L2 keys embed the resolved content (regex ASTs, effective budget), so
   a restored entry is correct in any process — it is what makes the
   first post-restart request a warm hit.  L1 deliberately gets no
   codec: its keys embed the session id and are validated by the
   registry epoch, and both counters restart from the same values after
   a reboot — a persisted L1 entry computed against one session's
   registry could collide with an unrelated session that happens to
   reuse the sid and epoch number. *)
let () =
  let encode j = Some (J.to_string j) in
  let decode s =
    match J.of_string s with Ok j -> Some j | Error _ -> None
  in
  Reply_store.set_codec ~abi_sensitive:false l2_store ~tag:"server/l2" ~encode
    ~decode

type cache_source = [ `Off | `Miss | `L1 | `L2 ]

let cache_source_string = function
  | `Off -> "off"
  | `Miss -> "miss"
  | `L1 -> "l1"
  | `L2 -> "l2"

(* Methods whose [`Ok] reply is a pure function of (resolved) params. *)
let cacheable_method = function
  | "check" | "equivalence" | "kprefix" | "compose" -> true
  | _ -> false

(* Parsed regexes are pure ASTs, so marshaling is canonical: two specs
   that parse to the same AST share one entry. *)
let regex_repr r = Marshal.to_string r [ Marshal.No_sharing ]

let budget_repr (b : Engine.Budget.t) = Marshal.to_string b [ Marshal.No_sharing ]

(* Provenance of the snapshot this daemon booted from, surfaced by the
   [stats] wire method and frozen at [start]. *)
type snapshot_prov = {
  sp_path : string;
  sp_version : int;
  sp_digest : int;
  sp_bytes : int;
  sp_load_ms : float;
  sp_sections : (string * int) list;
  sp_symtab : int;
  sp_cache_entries : int;
  sp_caches_skipped : string list;
}

type t = {
  config : config;
  tel : Telemetry.t;
  listen_fd : Unix.file_descr;
  bound : Protocol.addr;
  stopping : bool Atomic.t;
  inflight : int Atomic.t;
  next_sid : int Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable http : Http.t option;
  conns_mu : Mutex.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
  mutable snap_prov : snapshot_prov option;
  mutable seed_components : (int * (string * string) list) option;
}

let bound_addr t = t.bound
let sessions_started t = Atomic.get t.next_sid - 1
let telemetry t = t.tel
let metrics_bound_port t = Option.map Http.bound_port t.http

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* What a handler produces; [handle] wraps it into the response envelope.
   [`Exhausted] is the structured budget-trip outcome, not an error. *)
type reply =
  [ `Ok of J.t
  | `Ok_close of J.t
  | `Error of string * string
  | `Exhausted of Engine.exhausted ]

let ( let* ) = Result.bind

let bad msg : ('a, reply) result = Error (`Error (P.err_bad_request, msg))

let check_keys params allowed : (unit, reply) result =
  match params with
  | J.Obj kvs -> (
    match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
    | Some (k, _) -> bad (Printf.sprintf "unknown parameter %S" k)
    | None -> Ok ())
  | _ -> bad "params must be an object"

let req_string params k : (string, reply) result =
  match J.member k params with
  | Some (J.String s) -> Ok s
  | Some _ -> bad (Printf.sprintf "parameter %S must be a string" k)
  | None -> bad (Printf.sprintf "missing parameter %S" k)

(* A service designator: an inline regex (string) or a reference to a
   registered component ({"ref": "name"}). *)
let resolve cfg session j : ([ `Inline | `Ref ] * string * Regex.t, reply) result
    =
  match j with
  | J.String spec ->
    if String.length spec > cfg.max_spec_len then
      Error
        (`Error
           ( P.err_limit,
             Printf.sprintf "spec longer than %d bytes" cfg.max_spec_len ))
    else (
      match Regex.parse spec with
      | exception Regex.Parse_error m ->
        bad (Printf.sprintf "bad regex %S: %s" spec m)
      | r -> Ok (`Inline, spec, r))
  | J.Obj [ ("ref", J.String name) ] -> (
    match Session.find session name with
    | Some c -> Ok (`Ref, c.Session.name, c.Session.regex)
    | None ->
      Error
        (`Error
           (P.err_unknown_component, Printf.sprintf "unknown component %S" name)))
  | _ -> bad "service must be a regex string or {\"ref\": \"name\"}"

let budget_param cfg params : (Engine.Budget.t, reply) result =
  match J.member "budget" params with
  | None -> Ok cfg.default_budget
  | Some j -> (
    match Engine.Budget.of_json j with
    | Ok b -> Ok (Engine.Budget.combine b cfg.max_budget)
    | Error e -> bad e)

(* Witness words travel as compact strings, one char per message: 'a'+i
   for the one-hot mask of input variable i ('#' for the Roman session
   delimiter), '.' for the all-false padding message, '?' otherwise. *)
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

let alphabet_size_of regexes = Session.alphabet_size_of regexes

let decision_outcome_json = function
  | Decision.Yes w ->
    Ok
      (J.Obj
         [ ("answer", J.String "yes"); ("witness_len", J.Int (List.length w)) ])
  | Decision.No -> Ok (J.Obj [ ("answer", J.String "no") ])
  | Decision.Exhausted e -> Error (`Exhausted e : reply)

(* Serve from / fill the content-resolved L2 cache around a method body.
   Runs after parameter validation and reference resolution, so bad
   requests never produce entries and the key is registry-independent. *)
let l2 ~csrc parts (f : unit -> (reply, reply) result) : (reply, reply) result
    =
  if not (Engine.caching_enabled ()) then f ()
  else begin
    let key = Cache.Store.Key.of_parts parts in
    match Reply_store.find l2_store key with
    | Some payload ->
      csrc := `L2;
      Ok (`Ok payload)
    | None ->
      let r = f () in
      (match r with
      | Ok (`Ok payload) -> Reply_store.add l2_store key payload
      | _ -> ());
      r
  end

let snapshot_prov_json t =
  match t.snap_prov with
  | None -> J.Obj [ ("loaded", J.Bool false) ]
  | Some p ->
    J.Obj
      [
        ("loaded", J.Bool true);
        ("path", J.String p.sp_path);
        ("format_version", J.Int p.sp_version);
        ("digest", J.String (Printf.sprintf "%x" p.sp_digest));
        ("bytes", J.Int p.sp_bytes);
        ("load_ms", J.Float p.sp_load_ms);
        ( "sections",
          J.Obj (List.map (fun (tag, n) -> (tag, J.Int n)) p.sp_sections) );
        ("symtab", J.Int p.sp_symtab);
        ("cache_entries", J.Int p.sp_cache_entries);
        ( "caches_skipped",
          J.List (List.map (fun s -> J.String s) p.sp_caches_skipped) );
      ]

let dispatch t session ~sink ~csrc (req : Protocol.request) : reply =
  let cfg = t.config in
  let tel = t.tel in
  let params = req.P.params in
  let result : (reply, reply) result =
    match req.P.meth with
    | "ping" ->
      let* () = check_keys params [] in
      Ok
        (`Ok
           (J.Obj
              [
                ("pong", J.Bool true);
                ("server", J.String "swsd");
                ("version", J.Int P.version);
              ]))
    | "register" ->
      let* () = check_keys params [ "name"; "spec" ] in
      let* name = req_string params "name" in
      let* spec = req_string params "spec" in
      if String.length spec > cfg.max_spec_len then
        Error
          (`Error
             ( P.err_limit,
               Printf.sprintf "spec longer than %d bytes" cfg.max_spec_len ))
      else (
        match
          Session.register session ~max_components:cfg.max_components ~name
            ~spec
        with
        | Ok _ ->
          Ok
            (`Ok
               (J.Obj
                  [
                    ("registered", J.String name);
                    ( "components",
                      J.Int (List.length (Session.components session)) );
                  ]))
        | Error (`Bad m) -> bad m
        | Error `Full ->
          Error
            (`Error
               ( P.err_limit,
                 Printf.sprintf "session already holds %d components"
                   cfg.max_components )))
    | "unregister" ->
      let* () = check_keys params [ "name" ] in
      let* name = req_string params "name" in
      Ok (`Ok (J.Obj [ ("removed", J.Bool (Session.unregister session name)) ]))
    | "list" ->
      let* () = check_keys params [] in
      Ok
        (`Ok
           (J.Obj
              [
                ( "components",
                  J.List
                    (List.map
                       (fun c ->
                         J.Obj
                           [
                             ("name", J.String c.Session.name);
                             ("spec", J.String c.Session.spec);
                           ])
                       (Session.components session)) );
              ]))
    | "check" ->
      let* () = check_keys params [ "service" ] in
      let* j =
        match J.member "service" params with
        | Some j -> Ok j
        | None -> bad "missing parameter \"service\""
      in
      let* _, _, r = resolve cfg session j in
      l2 ~csrc [ "check"; regex_repr r ] @@ fun () ->
      let alphabet_size = alphabet_size_of [ r ] in
      let sws = Roman.to_sws_pl (Nfa.of_regex ~alphabet_size r) in
      let* ne = decision_outcome_json (Decision.pl_non_emptiness ~stats:sink sws) in
      let* va =
        decision_outcome_json
          (Decision.pl_validation ~stats:sink sws ~output:false)
      in
      Ok
        (`Ok
           (J.Obj
              [
                ("states", J.Int (Sws_def.num_states (Sws_pl.def sws)));
                ("recursive", J.Bool (Sws_pl.is_recursive sws));
                ("non_emptiness", ne);
                ("validation", va);
              ]))
    | "equivalence" ->
      let* () = check_keys params [ "left"; "right" ] in
      let* jl =
        match J.member "left" params with
        | Some j -> Ok j
        | None -> bad "missing parameter \"left\""
      in
      let* jr =
        match J.member "right" params with
        | Some j -> Ok j
        | None -> bad "missing parameter \"right\""
      in
      let* _, _, rl = resolve cfg session jl in
      let* _, _, rr = resolve cfg session jr in
      l2 ~csrc [ "equivalence"; regex_repr rl; regex_repr rr ] @@ fun () ->
      let alphabet_size = alphabet_size_of [ rl; rr ] in
      let sl = Roman.to_sws_pl (Nfa.of_regex ~alphabet_size rl) in
      let sr = Roman.to_sws_pl (Nfa.of_regex ~alphabet_size rr) in
      (match Decision.pl_equivalence ~stats:sink sl sr with
      | Decision.Equivalent -> Ok (`Ok (J.Obj [ ("equivalent", J.Bool true) ]))
      | Decision.Inequivalent w ->
        Ok
          (`Ok
             (J.Obj
                [
                  ("equivalent", J.Bool false);
                  ("distinguishing_len", J.Int (List.length w));
                  ("counterexample", J.String (word_string sl w));
                ]))
      | Decision.Equiv_exhausted e -> Error (`Exhausted e))
    | "kprefix" ->
      let* () = check_keys params [ "service" ] in
      let* j =
        match J.member "service" params with
        | Some j -> Ok j
        | None -> bad "missing parameter \"service\""
      in
      let* _, _, r = resolve cfg session j in
      l2 ~csrc [ "kprefix"; regex_repr r ]
      @@ fun () ->
      let alphabet_size = alphabet_size_of [ r ] in
      let dfa = Dfa.of_nfa (Nfa.of_regex ~alphabet_size r) in
      Ok
        (`Ok
           (J.Obj
              [
                ( "k",
                  match Compose.k_prefix_bound dfa with
                  | Some k -> J.Int k
                  | None -> J.Null );
              ]))
    | "compose" ->
      let* () = check_keys params [ "goal"; "components"; "mode"; "budget" ] in
      let* jg =
        match J.member "goal" params with
        | Some j -> Ok j
        | None -> bad "missing parameter \"goal\""
      in
      let* _, _, goal_r = resolve cfg session jg in
      let* named_rs =
        match J.member "components" params with
        | None -> (
          match Session.components session with
          | [] -> bad "no components registered and none given"
          | cs ->
            Ok (List.map (fun c -> (c.Session.name, c.Session.regex)) cs))
        | Some (J.List ds) ->
          if ds = [] then bad "components must be a non-empty list"
          else
            List.fold_left
              (fun acc (i, d) ->
                let* acc = acc in
                let* kind, label, r = resolve cfg session d in
                let label =
                  match kind with
                  | `Ref -> label
                  | `Inline -> Printf.sprintf "V%d:%s" i label
                in
                Ok ((label, r) :: acc))
              (Ok [])
              (List.mapi (fun i d -> (i, d)) ds)
            |> Result.map List.rev
        | Some _ -> bad "components must be a list of services"
      in
      let* mode =
        match J.member "mode" params with
        | None | Some (J.String "or") -> Ok `Or
        | Some (J.String "mdtb") -> Ok `Mdtb
        | Some _ -> bad "mode must be \"or\" or \"mdtb\""
      in
      let alphabet_size = alphabet_size_of (goal_r :: List.map snd named_rs) in
      let goal_nfa = Nfa.of_regex ~alphabet_size goal_r in
      let components =
        List.map
          (fun (n, r) -> (n, Nfa.of_regex ~alphabet_size r))
          named_rs
      in
      let component_parts =
        List.concat_map (fun (n, r) -> [ n; regex_repr r ]) named_rs
      in
      (match mode with
      | `Or -> (
        match J.member "budget" params with
        | Some _ ->
          bad "mode \"or\" is decisive and takes no budget (use mode \"mdtb\")"
        | None ->
          l2 ~csrc
            (("compose_or" :: regex_repr goal_r :: component_parts))
          @@ fun () ->
          (match Compose.compose_nfa_or ~goal:goal_nfa ~components () with
          | Some { Compose.exact; mediator; component_names } ->
            let plans =
              List.filter (Dfa.accepts mediator)
                (Automata.Word_gen.words_up_to
                   ~alphabet_size:(List.length components) 3)
            in
            let plans = List.filteri (fun i _ -> i < 8) plans in
            Ok
              (`Ok
                 (J.Obj
                    [
                      ("found", J.Bool true);
                      ("exact", J.Bool exact);
                      ("mediator_states", J.Int (Dfa.num_states mediator));
                      ( "plans",
                        J.List
                          (List.map
                             (fun plan ->
                               J.List
                                 (List.map
                                    (fun j ->
                                      J.String (List.nth component_names j))
                                    plan))
                             plans) );
                    ]))
          | None -> Ok (`Ok (J.Obj [ ("found", J.Bool false) ]))))
      | `Mdtb -> (
        let* budget = budget_param cfg params in
        l2 ~csrc
          ("compose_mdtb" :: budget_repr budget :: regex_repr goal_r
          :: component_parts)
        @@ fun () ->
        match
          Compose.compose_mdtb ~stats:sink ~budget ~goal:goal_nfa ~components ()
        with
        | Compose.Found plan ->
          Ok
            (`Ok
               (J.Obj
                  [
                    ("found", J.Bool true);
                    ("plan", J.String (Fmt.str "%a" Compose.pp_plan plan));
                  ]))
        | Compose.No_mediator_within_bound e ->
          if e.Engine.limit = `Candidates then
            (* the whole plan space within the chain bound was enumerated:
               a decisive "no mediator within bound", not a trip *)
            Ok
              (`Ok
                 (J.Obj
                    [
                      ("found", J.Bool false);
                      ("chain_bound", J.Int e.Engine.depth_reached);
                      ("plans_checked", J.Int e.Engine.nodes_expanded);
                    ]))
          else Error (`Exhausted e)))
    | "stats" ->
      let* () = check_keys params [] in
      Ok
        (`Ok
           (J.Obj
              [
                ("version", J.Int P.version);
                ("pid", J.Int (Telemetry.pid tel));
                ("started_at", J.Float (Telemetry.started_at tel));
                ("uptime_ns", J.Int (Telemetry.uptime_ns tel));
                ("requests_handled", J.Int (Session.requests_handled session));
                ( "components",
                  J.Int (List.length (Session.components session)) );
                ( "counters",
                  Engine.Stats.snapshot_json (Session.stats session) );
                ("cache", Engine.cache_gauges_json (Engine.cache_snapshot ()));
                ("snapshot", snapshot_prov_json t);
              ]))
    | "snapshot" ->
      let* () = check_keys params [ "path" ] in
      let* path =
        match J.member "path" params with
        | Some (J.String p) -> Ok p
        | Some _ -> bad "parameter \"path\" must be a string"
        | None -> (
          match cfg.snapshot with
          | Some p -> Ok p
          | None -> bad "no \"path\" given and the daemon has no --snapshot")
      in
      let comps =
        List.map
          (fun c -> (c.Session.name, c.Session.spec))
          (Session.components session)
      in
      (* epoch-stamped: cached replies persisted here were stamped with
         the session epoch at the time they were computed, and the seeded
         session after a restart starts at least at this epoch *)
      (match
         Snapshot.save ~components:(Session.epoch session, comps) ~path ()
       with
      | Error msg -> Error (`Error (P.err_internal, msg))
      | Ok info ->
        Telemetry.snapshot_saved tel ~bytes:info.Snapshot.i_bytes;
        Obs.Log.info
          ~fields:
            [
              ("path", J.String info.Snapshot.i_path);
              ("bytes", J.Int info.Snapshot.i_bytes);
            ]
          "snapshot written";
        Ok
          (`Ok
             (J.Obj
                [
                  ("path", J.String info.Snapshot.i_path);
                  ("bytes", J.Int info.Snapshot.i_bytes);
                  ("format_version", J.Int info.Snapshot.i_version);
                  ("digest", J.String (Printf.sprintf "%x" info.Snapshot.i_digest));
                  ("epoch", J.Int (Session.epoch session));
                  ( "sections",
                    J.Obj
                      (List.map
                         (fun (tag, n) -> (tag, J.Int n))
                         info.Snapshot.i_sections) );
                ])))
    | "metrics" ->
      let* () = check_keys params [] in
      Ok
        (`Ok
           (J.Obj
              [
                ("version", J.Int P.version);
                ("pid", J.Int (Telemetry.pid tel));
                ("started_at", J.Float (Telemetry.started_at tel));
                ("uptime_ns", J.Int (Telemetry.uptime_ns tel));
                ("enabled", J.Bool (Obs.Metrics.enabled ()));
                ("metrics", Telemetry.to_json tel);
              ]))
    | "trace" ->
      let* () = check_keys params [ "op" ] in
      let* () =
        match J.member "op" params with
        | None | Some (J.String "last") -> Ok ()
        | Some _ -> bad "op must be \"last\""
      in
      Ok
        (`Ok
           (J.Obj
              [
                ( "sample_every",
                  match Telemetry.sample_every tel with
                  | Some n -> J.Int n
                  | None -> J.Null );
                ("samples_taken", J.Int (Telemetry.samples_taken tel));
                ("samples_skipped", J.Int (Telemetry.samples_skipped tel));
                ( "trace",
                  match Telemetry.last_trace tel with
                  | Some j -> j
                  | None -> J.Null );
              ]))
    | "cache" -> (
      let* () = check_keys params [ "op" ] in
      let* op =
        match J.member "op" params with
        | None | Some (J.String "stats") -> Ok `Stats
        | Some (J.String "clear") -> Ok `Clear
        | Some _ -> bad "op must be \"stats\" or \"clear\""
      in
      match op with
      | `Stats ->
        Ok
          (`Ok
             (J.Obj
                [
                  ("enabled", J.Bool (Engine.caching_enabled ()));
                  ( "classes",
                    Engine.cache_gauges_json (Engine.cache_snapshot ()) );
                ]))
      | `Clear ->
        Engine.cache_clear_all ();
        Ok (`Ok (J.Obj [ ("cleared", J.Bool true) ])))
    | "close" ->
      let* () = check_keys params [] in
      Ok (`Ok_close (J.Obj [ ("closing", J.Bool true) ]))
    | m ->
      Error (`Error (P.err_unknown_method, Printf.sprintf "unknown method %S" m))
  in
  match result with Ok r | Error r -> r

(* ------------------------------------------------------------------ *)
(* Per-request envelope: stats sink, provenance, meta                  *)
(* ------------------------------------------------------------------ *)

let handle t session (req : Protocol.request) : J.t * [ `Keep | `Close ] =
  let cfg = t.config in
  let tel = t.tel in
  let trace_id = Session.next_trace_id session in
  let sink = Engine.Stats.create () in
  let before = Engine.Stats.snapshot sink in
  let cache_before = Engine.cache_snapshot () in
  let csrc : cache_source ref =
    ref (if Engine.caching_enabled () then `Miss else `Off)
  in
  let t0 = Obs.Clock.now_ns () in
  let reply =
    Telemetry.with_sample tel ~trace_id @@ fun () ->
    Engine.run ~stats:sink
      ~name:("swsd." ^ req.P.meth)
      ~outcome:(function
        | `Ok _ | `Ok_close _ -> Obs.Trace.Decided true
        | `Error _ -> Obs.Trace.Decided false
        | `Exhausted (e : Engine.exhausted) -> Obs.Trace.Tripped e.Engine.limit)
      (fun () ->
        let compute () =
          try dispatch t session ~sink ~csrc req
          with e -> `Error (P.err_internal, Printexc.to_string e)
        in
        if not (Engine.caching_enabled () && cacheable_method req.P.meth)
        then compute ()
        else begin
          (* L1: the raw request per session, validated against the
             registry epoch so any (un)registration invalidates it *)
          let epoch = Session.epoch session in
          let key =
            Cache.Store.Key.of_parts
              [
                "l1";
                string_of_int (Session.sid session);
                req.P.meth;
                J.to_string req.P.params;
              ]
          in
          match Reply_store.find ~epoch l1_store key with
          | Some payload ->
            csrc := `L1;
            `Ok payload
          | None ->
            let r = compute () in
            (match r with
            | `Ok payload -> Reply_store.add ~epoch l1_store key payload
            | _ -> ());
            r
        end)
  in
  let dur_ns = Int64.to_int (Obs.Clock.elapsed_ns t0) in
  let status =
    match reply with
    | `Ok _ | `Ok_close _ -> "ok"
    | `Error _ -> "error"
    | `Exhausted _ -> "exhausted"
  in
  Telemetry.record_request tel ~meth:req.P.meth ~status ~dur_ns;
  (match reply with
  | `Exhausted (e : Engine.exhausted) -> Telemetry.budget_trip tel e.Engine.limit
  | _ -> ());
  (match cfg.slow_ms with
  | Some threshold_ms ->
    let dur_ms = Obs.Clock.ns_to_ms (Int64.of_int dur_ns) in
    if dur_ms >= threshold_ms then begin
      Telemetry.slow_request tel;
      (* best effort: under concurrency another run may have recorded
         provenance since ours, so only trust a record naming this
         method; otherwise fall back to the reply status *)
      let outcome =
        match Obs.Trace.last_provenance () with
        | Some p when String.equal p.Obs.Trace.procedure ("swsd." ^ req.P.meth)
          ->
          Obs.Trace.outcome_to_string p.Obs.Trace.outcome
        | _ -> status
      in
      Obs.Log.warn
        ~fields:
          [
            ("trace_id", J.String trace_id);
            ("method", J.String req.P.meth);
            ("duration_ms", J.Float dur_ms);
            ("outcome", J.String outcome);
            ("cache", J.String (cache_source_string !csrc));
          ]
        "slow request"
    end
  | None -> ());
  let meta =
    if req.P.want_meta then
      Some
        (J.Obj
           [
             ( "duration_ms",
               J.Float (Obs.Clock.ns_to_ms (Obs.Clock.elapsed_ns t0)) );
             ( "counters",
               Engine.Stats.counters_to_json (Engine.Stats.delta ~before sink)
             );
             ( "cache",
               J.Obj
                 [
                   ("source", J.String (cache_source_string !csrc));
                   ( "delta",
                     Engine.cache_gauges_json
                       (Engine.cache_snapshot_delta ~before:cache_before
                          (Engine.cache_snapshot ())) );
                 ] );
           ])
    else None
  in
  Session.absorb session sink;
  Session.bump_handled session;
  let id = req.P.id in
  match reply with
  | `Ok r -> (P.ok_response ?meta ~id ~trace_id r, `Keep)
  | `Ok_close r -> (P.ok_response ?meta ~id ~trace_id r, `Close)
  | `Error (code, message) ->
    (P.error_response ?meta ~id ~trace_id ~code ~message (), `Keep)
  | `Exhausted e -> (P.exhausted_response ?meta ~id ~trace_id e, `Keep)

(* ------------------------------------------------------------------ *)
(* Connection loop                                                     *)
(* ------------------------------------------------------------------ *)

let serve_conn t fd =
  let cfg = t.config in
  let session = Session.create ~sid:(Atomic.fetch_and_add t.next_sid 1) in
  (* warm boot: every fresh session starts from the snapshot's component
     registry (and at least its epoch), so a client reconnecting after a
     restart sees the components it registered before it *)
  (match t.seed_components with
  | Some (epoch, comps) ->
    ignore
      (Session.seed session ~max_components:cfg.max_components ~epoch comps)
  | None -> ());
  Telemetry.connection_opened t.tel;
  Telemetry.session_started t.tel;
  let respond json = Protocol.write_frame fd (J.to_string json) in
  let handle_payload payload =
    match J.of_string ~max_depth:cfg.max_json_depth payload with
    | Error msg ->
      Telemetry.wire_error t.tel P.err_parse;
      respond
        (P.error_response ~id:J.Null ~trace_id:(Session.next_trace_id session)
           ~code:P.err_parse ~message:msg ());
      `Keep
    | Ok json -> (
      match Protocol.request_of_json json with
      | Error msg ->
        Telemetry.wire_error t.tel P.err_bad_request;
        respond
          (P.error_response ~id:J.Null
             ~trace_id:(Session.next_trace_id session) ~code:P.err_bad_request
             ~message:msg ());
        `Keep
      | Ok req ->
        (* admission control: a request beyond the in-flight cap is
           answered [busy] immediately rather than queued without bound *)
        if Atomic.fetch_and_add t.inflight 1 >= cfg.max_inflight then begin
          Atomic.decr t.inflight;
          Telemetry.wire_error t.tel P.err_busy;
          respond
            (P.error_response ~id:req.P.id
               ~trace_id:(Session.next_trace_id session) ~code:P.err_busy
               ~message:
                 (Printf.sprintf "%d requests already in flight"
                    cfg.max_inflight)
               ());
          `Keep
        end
        else begin
          Telemetry.request_started t.tel;
          let response, keep =
            Fun.protect
              ~finally:(fun () ->
                Atomic.decr t.inflight;
                Telemetry.request_finished t.tel)
              (fun () ->
                (* hop to a pool domain: connection systhreads share their
                   spawning domain's runtime lock, the pool runs requests
                   in real parallel *)
                Par.Pool.await
                  (Par.Pool.async (fun () -> handle t session req)))
          in
          respond response;
          keep
        end)
  in
  let rec loop () =
    match Protocol.read_frame ~max_bytes:cfg.max_frame_bytes fd with
    | Error (`Too_large n) ->
      Telemetry.wire_error t.tel P.err_too_large;
      respond
        (P.error_response ~id:J.Null ~trace_id:(Session.next_trace_id session)
           ~code:P.err_too_large
           ~message:
             (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" n
                cfg.max_frame_bytes)
           ());
      loop ()
    | Ok payload -> ( match handle_payload payload with `Keep -> loop () | `Close -> ())
  in
  (try loop () with
  | Protocol.Closed -> ()
  | Unix.Unix_error _ -> ()
  | Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Telemetry.connection_closed t.tel;
  Mutex.lock t.conns_mu;
  t.conns <- List.filter (fun (fd', _) -> fd' != fd) t.conns;
  Mutex.unlock t.conns_mu

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let listen_on addr =
  match addr with
  | Protocol.Unix_sock path ->
    (try if Sys.file_exists path then Unix.unlink path
     with Sys_error _ | Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, addr)
  | Protocol.Tcp (host, port) ->
    let inet =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_loopback
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, Protocol.Tcp (host, bound_port))

let accept_loop t =
  let rec go () =
    if Atomic.get t.stopping then ()
    else
      match Unix.accept t.listen_fd with
      | fd, _ ->
        if Atomic.get t.stopping then (
          (try Unix.close fd with Unix.Unix_error _ -> ()))
        else begin
          let th = Thread.create (fun () -> serve_conn t fd) () in
          Mutex.lock t.conns_mu;
          t.conns <- (fd, th) :: t.conns;
          Mutex.unlock t.conns_mu;
          go ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> go ()
      | exception _ ->
        (* [stop] shut the listener down — or it is beyond saving; either
           way the accept loop is done *)
        ()
  in
  go ()

(* The /healthz contract: 200 while the daemon can take another request,
   503 with a reason once it cannot (pool saturated, or stopping).  A
   load balancer draining on 503 is the intended reader. *)
let http_handler t ~meth ~path : Http.response =
  if not (String.equal meth "GET") then
    {
      Http.status = 405;
      content_type = "text/plain";
      body = "method not allowed\n";
    }
  else
    match path with
    | "/metrics" ->
      {
        Http.status = 200;
        content_type = "text/plain; version=0.0.4";
        body = Telemetry.to_prometheus t.tel;
      }
    | "/healthz" ->
      let inflight = Atomic.get t.inflight in
      let state =
        if Atomic.get t.stopping then Error "stopping"
        else if inflight >= t.config.max_inflight then Error "saturated"
        else Ok ()
      in
      let body reason_or_ok =
        J.to_string
          (J.Obj
             [
               ("status", J.String reason_or_ok);
               ("inflight", J.Int inflight);
               ("max_inflight", J.Int t.config.max_inflight);
               ("uptime_ns", J.Int (Telemetry.uptime_ns t.tel));
             ])
        ^ "\n"
      in
      (match state with
      | Ok () ->
        { Http.status = 200; content_type = "application/json"; body = body "ok" }
      | Error reason ->
        {
          Http.status = 503;
          content_type = "application/json";
          body = body reason;
        })
    | _ ->
      { Http.status = 404; content_type = "text/plain"; body = "not found\n" }

let start config =
  (* a client hanging up mid-response must cost an EPIPE, not the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Option.iter (fun j -> Par.Pool.set_jobs (Some j)) config.jobs;
  Option.iter (fun n -> Engine.cache_set_caps ~max_entries:n ()) config.cache_cap;
  Obs.Metrics.set_enabled config.metrics;
  let tel =
    Telemetry.create ?trace_sample:config.trace_sample
      ?trace_dir:config.trace_dir ()
  in
  let listen_fd, bound = listen_on config.addr in
  let t =
    {
      config;
      tel;
      listen_fd;
      bound;
      stopping = Atomic.make false;
      inflight = Atomic.make 0;
      next_sid = Atomic.make 1;
      accept_thread = None;
      http = None;
      conns_mu = Mutex.create ();
      conns = [];
      snap_prov = None;
      seed_components = None;
    }
  in
  (* Warm boot, before the accept thread exists: the first connection must
     already see the restored interner, caches and seed registry.  Any
     failure (absent file, corruption, version skew) degrades to a cold
     start — a bad snapshot must never keep the daemon down. *)
  (match config.snapshot with
  | None -> ()
  | Some path when not (Sys.file_exists path) ->
    Obs.Log.info
      ~fields:[ ("path", J.String path) ]
      "snapshot absent; cold start"
  | Some path -> (
    let t0 = Obs.Clock.now_ns () in
    match Snapshot.load ~path with
    | Error msg ->
      Obs.Log.warn
        ~fields:[ ("path", J.String path); ("error", J.String msg) ]
        "snapshot load failed; cold start"
    | Ok (info, contents) ->
      let dur_ns = Int64.to_int (Obs.Clock.elapsed_ns t0) in
      let load_ms = Obs.Clock.ns_to_ms (Int64.of_int dur_ns) in
      Telemetry.snapshot_loaded tel ~dur_ns ~bytes:info.Snapshot.i_bytes
        ~sections:(List.length info.Snapshot.i_sections);
      let cache_entries =
        List.fold_left (fun n (_, k) -> n + k) 0 contents.Snapshot.c_caches
      in
      t.snap_prov <-
        Some
          {
            sp_path = path;
            sp_version = info.Snapshot.i_version;
            sp_digest = info.Snapshot.i_digest;
            sp_bytes = info.Snapshot.i_bytes;
            sp_load_ms = load_ms;
            sp_sections = info.Snapshot.i_sections;
            sp_symtab = contents.Snapshot.c_symtab;
            sp_cache_entries = cache_entries;
            sp_caches_skipped = contents.Snapshot.c_caches_skipped;
          };
      t.seed_components <- contents.Snapshot.c_components;
      Obs.Log.info
        ~fields:
          [
            ("path", J.String path);
            ("bytes", J.Int info.Snapshot.i_bytes);
            ("load_ms", J.Float load_ms);
            ("symtab", J.Int contents.Snapshot.c_symtab);
            ("cache_entries", J.Int cache_entries);
            ( "components",
              J.Int
                (match contents.Snapshot.c_components with
                | Some (_, cs) -> List.length cs
                | None -> 0) );
          ]
        "snapshot loaded"));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  (match config.metrics_port with
  | Some port ->
    let http = Http.start ~port (fun ~meth ~path -> http_handler t ~meth ~path) in
    t.http <- Some http;
    Obs.Log.info
      ~fields:[ ("port", J.Int (Http.bound_port http)) ]
      "metrics listener up"
  | None -> ());
  Obs.Log.info
    ~fields:
      [
        ("addr", J.String (Fmt.str "%a" Protocol.pp_addr bound));
        ("pid", J.Int (Unix.getpid ()));
        ("jobs", J.Int (Par.Pool.jobs ()));
        ("metrics", J.Bool config.metrics);
      ]
    "swsd listening";
  t

let wait t = Option.iter Thread.join t.accept_thread

(* Closing an fd does not interrupt a thread blocked in [Unix.accept] on
   Linux, so [stop] first shuts the listener down (which wakes the accept
   with EINVAL on Linux) and then connects to itself once as a portable
   fallback wake-up; the accept loop re-checks [stopping] on every
   iteration. *)
let wake_accept bound =
  try
    let fd =
      match bound with
      | Protocol.Unix_sock path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      | Protocol.Tcp (_, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
    in
    Unix.close fd
  with Unix.Unix_error _ -> ()

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Option.iter Http.stop t.http;
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    wake_accept t.bound;
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Mutex.lock t.conns_mu;
    let conns = t.conns in
    Mutex.unlock t.conns_mu;
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, th) -> Thread.join th) conns;
    (match t.bound with
    | Protocol.Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Protocol.Tcp _ -> ());
    Obs.Log.info
      ~fields:[ ("sessions", J.Int (sessions_started t)) ]
      "swsd stopped"
  end
