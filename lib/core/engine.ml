(* The shared search kernel: budgets, structured exhaustion, stats and the
   iterative-deepening driver used by every bounded procedure (Decision,
   Compose, Mediator, Peer).  See engine.mli for the contract. *)

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

module Budget = struct
  type t = {
    max_depth : int option;
    max_nodes : int option;
    deadline_s : float option;
  }

  let unlimited = { max_depth = None; max_nodes = None; deadline_s = None }
  let of_depth d = { unlimited with max_depth = Some d }
  let of_nodes n = { unlimited with max_nodes = Some n }
  let of_seconds s = { unlimited with deadline_s = Some s }

  let make ?max_depth ?max_nodes ?deadline_s () =
    { max_depth; max_nodes; deadline_s }

  let min_opt a b =
    match a, b with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)

  let combine a b =
    {
      max_depth = min_opt a.max_depth b.max_depth;
      max_nodes = min_opt a.max_nodes b.max_nodes;
      deadline_s = min_opt a.deadline_s b.deadline_s;
    }

  let is_unlimited t =
    t.max_depth = None && t.max_nodes = None && t.deadline_s = None

  (* [subsumes ~cached ~req]: may a definitive answer computed under
     [cached] be served to a request running under [req]?  Sound iff the
     request is at least as generous on every deterministic axis — a
     cache-off run under [req] would have explored a superset of what
     the cached run explored, so it would have reached the same
     definitive answer.  [None] is "unlimited", so a cached unlimited
     axis demands an unlimited request axis.  The wall-clock axis is
     deliberately ignored: deadlines are advisory and machine-dependent
     (no deterministic client can rely on where they trip), and serving
     a stored answer satisfies any deadline. *)
  let axis_subsumed ~cached ~req =
    match (cached, req) with
    | None, Some _ -> false
    | None, None | Some _, None -> true
    | Some c, Some r -> r >= c

  let subsumes ~cached ~req =
    axis_subsumed ~cached:cached.max_depth ~req:req.max_depth
    && axis_subsumed ~cached:cached.max_nodes ~req:req.max_nodes

  let pp ppf t =
    let part name pp_v = Option.map (fun v -> (name, Fmt.str "%a" pp_v v)) in
    let parts =
      List.filter_map Fun.id
        [
          part "depth" Fmt.int t.max_depth;
          part "nodes" Fmt.int t.max_nodes;
          part "deadline" (Fmt.fmt "%.3gs") t.deadline_s;
        ]
    in
    match parts with
    | [] -> Fmt.string ppf "unlimited"
    | parts ->
      Fmt.(list ~sep:(any ", ") (pair ~sep:(any "<=") string string)) ppf parts

  (* Wire form for swsd: absent components are absent keys, so
     [to_json unlimited] is [{}] and [of_json (to_json t) = Ok t]. *)
  let to_json t =
    let open Obs.Json in
    Obj
      (List.filter_map Fun.id
         [
           Option.map (fun d -> ("max_depth", Int d)) t.max_depth;
           Option.map (fun n -> ("max_nodes", Int n)) t.max_nodes;
           Option.map (fun s -> ("deadline_s", Float s)) t.deadline_s;
         ])

  let of_json j =
    let open Obs.Json in
    match j with
    | Obj kvs -> (
      let known = [ "max_depth"; "max_nodes"; "deadline_s" ] in
      match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
      | Some (k, _) -> Error (Printf.sprintf "budget: unknown field %S" k)
      | None -> (
        let int_field k =
          match List.assoc_opt k kvs with
          | None -> Ok None
          | Some (Int i) when i >= 0 -> Ok (Some i)
          | Some _ ->
            Error (Printf.sprintf "budget: %s must be a non-negative integer" k)
        in
        let float_field k =
          match List.assoc_opt k kvs with
          | None -> Ok None
          | Some v -> (
            match to_float_opt v with
            | Some f when Float.is_finite f && f >= 0. -> Ok (Some f)
            | _ ->
              Error
                (Printf.sprintf "budget: %s must be a non-negative number" k))
        in
        match
          (int_field "max_depth", int_field "max_nodes",
           float_field "deadline_s")
        with
        | Ok max_depth, Ok max_nodes, Ok deadline_s ->
          Ok { max_depth; max_nodes; deadline_s }
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e))
    | _ -> Error "budget: expected an object"
end

(* ------------------------------------------------------------------ *)
(* Structured exhaustion                                               *)
(* ------------------------------------------------------------------ *)

type limit = [ `Depth | `Nodes | `Deadline | `Candidates ]

type exhausted = {
  limit : limit;
  depth_reached : int;
  nodes_expanded : int;
  message : string;
}

let pp_limit ppf = function
  | `Depth -> Fmt.string ppf "depth"
  | `Nodes -> Fmt.string ppf "nodes"
  | `Deadline -> Fmt.string ppf "deadline"
  | `Candidates -> Fmt.string ppf "candidates"

let pp_exhausted ppf e =
  Fmt.pf ppf "%s [%a limit; depth %d, %d nodes]" e.message pp_limit e.limit
    e.depth_reached e.nodes_expanded

(* The structured wire form of a budget trip: what swsd returns instead of
   hanging or answering with a bare string. *)
let exhausted_to_json e =
  Obs.Json.Obj
    [
      ("limit", Obs.Json.String (Obs.Trace.limit_to_string e.limit));
      ("depth_reached", Obs.Json.Int e.depth_reached);
      ("nodes_expanded", Obs.Json.Int e.nodes_expanded);
      ("message", Obs.Json.String e.message);
    ]

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

module Stats = struct
  (* One plain mutable counter block per (domain, sink).  Bumps from the
     domain pool land in the bumping domain's own block — unsynchronised
     writes, no contention — and readers sum the blocks through
     {!Par.Shard.fold} at join points: the per-domain + merge scheme.  On a
     single domain there is exactly one block, so every reader returns the
     same numbers (and [pp]/[snapshot] the same bytes) as the unsharded
     record this replaces. *)
  module Counters = struct
    type t = {
      mutable nodes_expanded : int;
      mutable sat_calls : int;
      mutable hom_checks : int;
      mutable unfold_cache_hits : int;
      mutable unfold_cache_misses : int;
      mutable phases : (string * float) list;  (* reversed first-use order *)
    }

    let create () =
      {
        nodes_expanded = 0;
        sat_calls = 0;
        hom_checks = 0;
        unfold_cache_hits = 0;
        unfold_cache_misses = 0;
        phases = [];
      }

    let clear c =
      c.nodes_expanded <- 0;
      c.sat_calls <- 0;
      c.hom_checks <- 0;
      c.unfold_cache_hits <- 0;
      c.unfold_cache_misses <- 0;
      c.phases <- []
  end

  type t = {
    owner_id : int; (* domain that created the sink: its block is [owner] *)
    owner : Counters.t;
    shards : Counters.t Par.Shard.t;
  }

  let create () =
    let shards = Par.Shard.create Counters.create in
    {
      owner_id = (Domain.self () :> int);
      owner = Par.Shard.get shards;
      shards;
    }

  let global = create ()

  (* The hot path: the creating domain (virtually all bumps) skips even the
     shard lookup. *)
  let my t =
    if (Domain.self () :> int) = t.owner_id then t.owner
    else Par.Shard.get t.shards

  let reset t = Par.Shard.iter Counters.clear t.shards

  let sum field t =
    Par.Shard.fold (fun acc c -> acc + field c) 0 t.shards

  (* The counter bumps are also the single trace-emission point: every
     instrumented module already routes its interesting moments through
     Stats, so emitting here gives complete traces with no extra call
     sites (and no double counting).  Each bump happens exactly once on
     whichever domain did the work. *)

  let node ?(count = 1) t =
    let c = my t in
    c.Counters.nodes_expanded <- c.Counters.nodes_expanded + count;
    Obs.Trace.emit Obs.Trace.Candidate_expanded

  let sat_call t =
    let c = my t in
    c.Counters.sat_calls <- c.Counters.sat_calls + 1;
    Obs.Trace.emit Obs.Trace.Sat_call

  let hom_check t =
    let c = my t in
    c.Counters.hom_checks <- c.Counters.hom_checks + 1;
    Obs.Trace.emit Obs.Trace.Hom_check

  let unfold_hit t =
    let c = my t in
    c.Counters.unfold_cache_hits <- c.Counters.unfold_cache_hits + 1;
    Obs.Trace.emit (Obs.Trace.Cache { layer = "unfold"; hit = true })

  let unfold_miss t =
    let c = my t in
    c.Counters.unfold_cache_misses <- c.Counters.unfold_cache_misses + 1;
    Obs.Trace.emit (Obs.Trace.Cache { layer = "unfold"; hit = false })

  let bump_phase_list phases name dt =
    let rec bump = function
      | [] -> [ (name, dt) ]
      | (n, acc) :: rest when String.equal n name -> (n, acc +. dt) :: rest
      | entry :: rest -> entry :: bump rest
    in
    bump phases

  let add_phase t name dt =
    let c = my t in
    c.Counters.phases <- bump_phase_list c.Counters.phases name dt

  let time t name f =
    let t0 = Obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        add_phase t name
          (Int64.to_float (Obs.Clock.elapsed_ns t0) /. 1e9))
      f

  let nodes_expanded t = sum (fun c -> c.Counters.nodes_expanded) t
  let sat_calls t = sum (fun c -> c.Counters.sat_calls) t
  let hom_checks t = sum (fun c -> c.Counters.hom_checks) t
  let unfold_cache_hits t = sum (fun c -> c.Counters.unfold_cache_hits) t
  let unfold_cache_misses t = sum (fun c -> c.Counters.unfold_cache_misses) t

  (* Phase buckets merged across shards in (shard creation, stored) order;
     with one shard the merged list IS that shard's list, so the reported
     order is byte-identical to the unsharded record. *)
  let phases t =
    Par.Shard.fold
      (fun acc c ->
        List.fold_left
          (fun acc (n, dt) -> bump_phase_list acc n dt)
          acc c.Counters.phases)
      [] t.shards
    |> List.rev

  let merge a b =
    let m = create () in
    let c = m.owner in
    c.Counters.nodes_expanded <- nodes_expanded a + nodes_expanded b;
    c.Counters.sat_calls <- sat_calls a + sat_calls b;
    c.Counters.hom_checks <- hom_checks a + hom_checks b;
    c.Counters.unfold_cache_hits <- unfold_cache_hits a + unfold_cache_hits b;
    c.Counters.unfold_cache_misses <-
      unfold_cache_misses a + unfold_cache_misses b;
    List.iter (fun (n, dt) -> add_phase m n dt) (phases a);
    List.iter (fun (n, dt) -> add_phase m n dt) (phases b);
    m

  (* The last two entries are process-wide representation gauges, read at
     snapshot time rather than counted per sink: [delta ~before] then
     reports the interner growth and bit-set churn attributable to one
     run, with no extra emission points. *)
  let snapshot t =
    [
      ("nodes_expanded", nodes_expanded t);
      ("sat_calls", sat_calls t);
      ("hom_checks", hom_checks t);
      ("unfold_cache_hits", unfold_cache_hits t);
      ("unfold_cache_misses", unfold_cache_misses t);
      ("interner_size", Relational.Value.interner_size ());
      ("bitset_allocs", Repr.Bitset.allocations ());
      ("lang_states_explored", Automata.Lang.states_explored_total ());
      ("lang_antichain_peak", Automata.Lang.antichain_peak ());
      ("lang_subsumption_prunes", Automata.Lang.subsumption_prunes_total ());
    ]

  let delta ~before t =
    List.map
      (fun (k, v) ->
        match List.assoc_opt k before with
        | Some v0 -> (k, v - v0)
        | None -> (k, v))
      (snapshot t)

  let counters_to_json cs =
    Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) cs)

  let snapshot_json t = counters_to_json (snapshot t)

  let pp ppf t =
    Fmt.pf ppf
      "@[<v>nodes expanded:       %d@ sat calls:            %d@ \
       containment checks:   %d@ unfold cache:         %d hits / %d misses"
      (nodes_expanded t) (sat_calls t) (hom_checks t) (unfold_cache_hits t)
      (unfold_cache_misses t);
    Fmt.pf ppf "@ interner size:       %d@ bitset allocations:   %d"
      (Relational.Value.interner_size ())
      (Repr.Bitset.allocations ());
    Fmt.pf ppf
      "@ lang states explored: %d@ lang antichain peak:  %d@ \
       lang subsumption prunes: %d"
      (Automata.Lang.states_explored_total ())
      (Automata.Lang.antichain_peak ())
      (Automata.Lang.subsumption_prunes_total ());
    List.iter
      (fun (name, dt) -> Fmt.pf ppf "@ phase %-15s %.3fms" name (dt *. 1000.))
      (phases t);
    Fmt.pf ppf "@]"
end

(* ------------------------------------------------------------------ *)
(* Metering                                                            *)
(* ------------------------------------------------------------------ *)

module Meter = struct
  type t = {
    budget : Budget.t;
    stats : Stats.t;
    started_ns : int64;  (* Obs.Clock.now_ns at creation, for the deadline *)
    nodes : int Atomic.t;
        (* Atomic, so a meter stays exact if it is ever ticked from more
           than one domain: an [Exhausted] record must carry the full count
           of work actually done, and a lost increment would under-report
           it. *)
  }

  let create ?(stats = Stats.global) budget =
    { budget; stats; started_ns = Obs.Clock.now_ns (); nodes = Atomic.make 0 }

  let tick ?(cost = 1) t =
    ignore (Atomic.fetch_and_add t.nodes cost);
    Stats.node ~count:cost t.stats

  let nodes t = Atomic.get t.nodes
  let elapsed_s t = Int64.to_float (Obs.Clock.elapsed_ns t.started_ns) /. 1e9
  let remaining_s t =
    Option.map (fun s -> s -. elapsed_s t) t.budget.Budget.deadline_s

  let exhaust t ~depth_reached ~limit message =
    Obs.Trace.emit (Obs.Trace.Budget_tripped limit);
    { limit; depth_reached; nodes_expanded = Atomic.get t.nodes; message }

  let check t ~depth =
    match t.budget.Budget.max_depth with
    | Some d when depth > d ->
      Error
        (exhaust t ~depth_reached:(depth - 1) ~limit:`Depth
           (Printf.sprintf "depth budget exhausted after n = %d" (depth - 1)))
    | _ -> (
      match t.budget.Budget.max_nodes with
      | Some n when Atomic.get t.nodes >= n ->
        Error
          (exhaust t ~depth_reached:(max 0 (depth - 1)) ~limit:`Nodes
             (Printf.sprintf "node budget exhausted after %d nodes"
                (Atomic.get t.nodes)))
      | _ -> (
        match t.budget.Budget.deadline_s with
        | Some s when elapsed_s t >= s ->
          Error
            (exhaust t ~depth_reached:(max 0 (depth - 1)) ~limit:`Deadline
               (Printf.sprintf "deadline of %.3gs exceeded" s))
        | _ -> Ok ()))
end

(* ------------------------------------------------------------------ *)
(* Cache switch                                                        *)
(* ------------------------------------------------------------------ *)

let caching = ref true
let caching_enabled () = !caching
let set_caching b = caching := b

(* ------------------------------------------------------------------ *)
(* The iterative-deepening driver                                      *)
(* ------------------------------------------------------------------ *)

type 'a scan_outcome =
  | Found of 'a
  | Completed of int
  | Exhausted of exhausted

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let run ?(stats = Stats.global) ~name ~outcome f =
  let before = Stats.snapshot stats in
  let t0 = Obs.Clock.now_ns () in
  let v = Obs.Trace.span name f in
  Obs.Trace.record_provenance
    {
      Obs.Trace.procedure = name;
      outcome = outcome v;
      first_depth = 0;
      last_depth = 0;
      counters = Stats.delta ~before stats;
      duration_ns = Obs.Clock.elapsed_ns t0;
    };
  v

let scan ?(stats = Stats.global) ?(budget = Budget.unlimited) ?decisive_bound
    ?(start = 0) ?(name = "scan") probe =
  if decisive_bound = None && Budget.is_unlimited budget then
    invalid_arg "Engine.scan: unbounded search (no decisive bound, no budget)";
  let before = Stats.snapshot stats in
  let t0 = Obs.Clock.now_ns () in
  let meter = Meter.create ~stats budget in
  let last_depth = ref (start - 1) in
  let rec go n =
    match decisive_bound with
    | Some b when n > b -> Completed b
    | _ -> (
      match Meter.check meter ~depth:n with
      | Error e -> Exhausted e
      | Ok () -> (
        last_depth := n;
        Obs.Trace.emit (Obs.Trace.Depth_started n);
        match probe meter n with
        | Some x ->
          Obs.Trace.emit Obs.Trace.Witness_found;
          Found x
        | None -> go (n + 1)))
  in
  let result = Obs.Trace.span name (fun () -> go start) in
  let outcome =
    match result with
    | Found _ -> Obs.Trace.Found_at !last_depth
    | Completed b -> Obs.Trace.Completed b
    | Exhausted e -> Obs.Trace.Tripped e.limit
  in
  Obs.Trace.record_provenance
    {
      Obs.Trace.procedure = name;
      outcome;
      first_depth = start;
      last_depth = !last_depth;
      counters = Stats.delta ~before stats;
      duration_ns = Obs.Clock.elapsed_ns t0;
    };
  result

(* ------------------------------------------------------------------ *)
(* Budget-monotone result memoization                                  *)
(* ------------------------------------------------------------------ *)

module type MEMO_VALUE = sig
  type t

  val weight : t -> int
end

module Memo (V : MEMO_VALUE) = struct
  (* An entry remembers the budget its answer was computed under;
     [None] marks a budget-independent answer (decisive procedures).
     Serving is gated by [Budget.subsumes], so a cached definitive
     answer found under a small budget is served under any larger one,
     and never under a smaller one — indistinguishable from cache-off
     on the deterministic budget axes. *)
  module Entry = struct
    type t = { under : Budget.t option; v : V.t }

    let weight e = V.weight e.v + 48
  end

  module S = Cache.Store.Make (Entry)

  type t = { cls : string; store : S.t }

  let create ?max_entries ?max_bytes ~cls () =
    { cls; store = S.create ?max_entries ?max_bytes ~cls () }

  let servable ~req entry =
    match entry.Entry.under with
    | None -> true
    | Some cached -> Budget.subsumes ~cached ~req

  (* --- snapshot persistence ---

     A persisted entry is the budget metadata as its JSON wire form
     (`Budget.to_json`: stable, no Marshal), length-prefixed, followed by
     the value codec's bytes.  Keeping the budget out of the opaque value
     payload means budget-monotone serving survives a reload: a restored
     answer computed under depth 4 still refuses a depth-8 request.
     Exhausted results are never cached (the [cacheable] gate in [run]),
     so they are never persisted either — the dump only sees resident
     entries. *)

  let encode_entry enc e =
    match enc e.Entry.v with
    | None -> None
    | Some value_bytes ->
      let budget_json =
        match e.Entry.under with
        | None -> ""
        | Some b -> Obs.Json.to_string (Budget.to_json b)
      in
      Some
        (Printf.sprintf "%d:%s%s" (String.length budget_json) budget_json
           value_bytes)

  let decode_entry dec s =
    match String.index_opt s ':' with
    | None -> None
    | Some colon -> (
      match int_of_string_opt (String.sub s 0 colon) with
      | None -> None
      | Some blen when blen < 0 || colon + 1 + blen > String.length s -> None
      | Some blen -> (
        let budget_json = String.sub s (colon + 1) blen in
        let value_bytes =
          String.sub s (colon + 1 + blen)
            (String.length s - colon - 1 - blen)
        in
        let under =
          if String.equal budget_json "" then Ok None
          else
            match Obs.Json.of_string budget_json with
            | Error e -> Error e
            | Ok j -> Result.map Option.some (Budget.of_json j)
        in
        match under with
        | Error _ -> None
        | Ok under -> (
          match dec value_bytes with
          | None -> None
          | Some v -> Some { Entry.under; v })))

  let set_persist ?abi_sensitive t ~tag ~encode ~decode =
    S.set_codec ?abi_sensitive t.store ~tag ~encode:(encode_entry encode)
      ~decode:(decode_entry decode)

  (* Marshal codec for stores whose value type is pure data (no closures,
     no custom blocks beyond ints/strings): the bytes are tied to this
     exact binary, which the snapshot layer enforces via the
     abi-sensitive flag before any [Marshal.from_string] runs. *)
  let persist_marshal t ~tag =
    set_persist t ~tag
      ~encode:(fun v -> try Some (Marshal.to_string v []) with _ -> None)
      ~decode:(fun s -> try Some (Marshal.from_string s 0) with _ -> None)

  let run t ?(stats = Stats.global) ?budget ~name ~key ~outcome ~cacheable f =
    if not (caching_enabled ()) then run ~stats ~name ~outcome f
    else begin
      let req = Option.value budget ~default:Budget.unlimited in
      (* Serve-rejection is decided inside [find] so the gauges stay
         truthful: an entry resident but computed under too small a
         budget counts as a miss, not a hit. *)
      match S.find ~validate:(servable ~req) t.store key with
      | Some { Entry.v; _ } ->
        Obs.Trace.emit (Obs.Trace.Cache { layer = t.cls; hit = true });
        (* Serve through [run]: the hit gets a provenance record
           (near-zero duration, zero counter movement), so [explain]
           and traces see every request, cached or not. *)
        run ~stats ~name ~outcome (fun () -> v)
      | None ->
        Obs.Trace.emit (Obs.Trace.Cache { layer = t.cls; hit = false });
        (* [f] is the procedure body, already instrumented (it records
           its own provenance via [run] or [scan]) — no second wrap, so
           a call costs exactly one provenance record, hit or miss. *)
        let v = f () in
        if cacheable v then
          S.add t.store key { Entry.under = budget; v };
        v
    end
end

(* Registry-wide cache surface, re-exported so binaries and the server
   need only Engine to snapshot, re-cap, or drop every cache class
   (including stores created inside lib/core). *)

let cache_snapshot () = Cache.Store.snapshot ()
let cache_total () = Cache.Store.total ()
let cache_clear_all () = Cache.Store.clear_all ()

let cache_snapshot_delta ~before now =
  Cache.Store.snapshot_delta ~before now

let cache_set_caps ?max_entries ?max_bytes () =
  Cache.Store.set_caps ?max_entries ?max_bytes ()

let cache_gauges_json snap =
  Obs.Json.Obj
    (List.map
       (fun (cls, g) ->
         ( cls,
           Obs.Json.Obj
             [
               ("hits", Obs.Json.Int g.Cache.Store.Gauges.hits);
               ("misses", Obs.Json.Int g.Cache.Store.Gauges.misses);
               ("evictions", Obs.Json.Int g.Cache.Store.Gauges.evictions);
               ("entries", Obs.Json.Int g.Cache.Store.Gauges.entries);
               ("bytes", Obs.Json.Int g.Cache.Store.Gauges.bytes);
             ] ))
       snap)
