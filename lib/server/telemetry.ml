(* See telemetry.mli. *)

module J = Obs.Json
module M = Obs.Metrics
module P = Protocol

(* The method label set is closed: per-method children are created once
   here, so the request path is a read-only [Hashtbl.find_opt] — never
   the registry mutex.  A method outside this list (an unknown-method
   request) accounts under "other". *)
let known_methods =
  [
    "ping";
    "register";
    "unregister";
    "list";
    "check";
    "equivalence";
    "kprefix";
    "compose";
    "stats";
    "cache";
    "metrics";
    "trace";
    "snapshot";
    "close";
    "other";
  ]

let statuses = [ "ok"; "error"; "exhausted" ]
let limits : Obs.Trace.limit list = [ `Depth; `Nodes; `Deadline; `Candidates ]

(* Transport-level failures counted in [serve_conn], before a request
   object exists; everything later is a normal (counted) response. *)
let wire_codes = [ P.err_parse; P.err_bad_request; P.err_too_large; P.err_busy ]

type t = {
  reg : M.t;
  started_at : float;  (** Unix epoch seconds *)
  start_ns : int64;
  requests : (string, M.Counter.t) Hashtbl.t;  (** "method/status" *)
  latency : (string, M.Histogram.t) Hashtbl.t;  (** per method *)
  inflight : M.Gauge.t;
  connections : M.Gauge.t;
  sessions : M.Counter.t;
  trips : (string, M.Counter.t) Hashtbl.t;  (** per limit *)
  wire : (string, M.Counter.t) Hashtbl.t;  (** per wire error code *)
  slow : M.Counter.t;
  sample_every : int option;
  trace_dir : string option;
  sample_seen : int Atomic.t;
  capturing : bool Atomic.t;
  last : J.t option Atomic.t;
  taken : M.Counter.t;
  skipped : M.Counter.t;
  snap_loads : M.Counter.t;
  snap_saves : M.Counter.t;
  snap_load_ns : M.Gauge.t;
  snap_bytes : M.Gauge.t;
  snap_sections : M.Gauge.t;
}

let create ?trace_sample ?trace_dir () =
  let reg = M.create () in
  let started_at = Unix.gettimeofday () in
  let start_ns = Obs.Clock.now_ns () in
  let requests = Hashtbl.create 64 in
  let latency = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun s ->
          Hashtbl.replace requests (m ^ "/" ^ s)
            (M.counter reg ~help:"Requests handled, by method and status"
               ~labels:[ ("method", m); ("status", s) ]
               "swsd_requests"))
        statuses;
      Hashtbl.replace latency m
        (M.histogram reg ~help:"Request latency in nanoseconds, by method"
           ~labels:[ ("method", m) ]
           "swsd_request_duration_ns"))
    known_methods;
  let inflight =
    M.gauge reg ~help:"Requests currently dispatched to the pool"
      "swsd_inflight_requests"
  in
  let connections =
    M.gauge reg ~help:"Open client connections" "swsd_open_connections"
  in
  let sessions =
    M.counter reg ~help:"Sessions accepted since start" "swsd_sessions"
  in
  let trips = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let s = Obs.Trace.limit_to_string l in
      Hashtbl.replace trips s
        (M.counter reg ~help:"Budget trips, by limit"
           ~labels:[ ("limit", s) ]
           "swsd_budget_trips"))
    limits;
  let wire = Hashtbl.create 8 in
  List.iter
    (fun c ->
      Hashtbl.replace wire c
        (M.counter reg ~help:"Wire-level request failures, by code"
           ~labels:[ ("code", c) ]
           "swsd_wire_errors"))
    wire_codes;
  let slow =
    M.counter reg ~help:"Requests slower than the --slow-ms threshold"
      "swsd_slow_requests"
  in
  let taken =
    M.counter reg ~help:"Request traces captured by the sampler"
      "swsd_trace_samples"
  in
  let skipped =
    M.counter reg
      ~help:"Sampler hits skipped because a capture was already running"
      "swsd_trace_samples_skipped"
  in
  let snap_loads =
    M.counter reg ~help:"Snapshots loaded since start" "swsd_snapshot_loads"
  in
  let snap_saves =
    M.counter reg ~help:"Snapshots written since start" "swsd_snapshot_saves"
  in
  let snap_load_ns =
    M.gauge reg ~help:"Duration of the last snapshot load, nanoseconds"
      "swsd_snapshot_load_duration_ns"
  in
  let snap_bytes =
    M.gauge reg ~help:"Size of the last snapshot loaded or written, bytes"
      "swsd_snapshot_bytes"
  in
  let snap_sections =
    M.gauge reg ~help:"Sections decoded by the last snapshot load"
      "swsd_snapshot_sections_loaded"
  in
  M.gauge_fn reg ~help:"Seconds since the daemon started" "swsd_uptime_seconds"
    (fun () -> int_of_float (Unix.gettimeofday () -. started_at));
  M.gauge_fn reg ~help:"Daemon start time, seconds since the Unix epoch"
    "swsd_start_time_seconds" (fun () -> int_of_float started_at);
  M.gauge_fn reg ~help:"Configured domain-pool size" "swsd_pool_jobs" (fun () ->
      Par.Pool.jobs ());
  (* Lazy language-engine gauges, read straight off the process-wide
     counters in Automata.Lang (the interner/bitset pattern). *)
  M.gauge_fn reg
    ~help:"Product pairs expanded by the antichain language engine"
    "swsd_lang_states_explored_total" (fun () ->
      Automata.Lang.states_explored_total ());
  M.gauge_fn reg
    ~help:"Largest kept-pair count one antichain exploration reached"
    "swsd_lang_antichain_peak" (fun () -> Automata.Lang.antichain_peak ());
  M.gauge_fn reg
    ~help:"Pairs pruned by antichain subsumption"
    "swsd_lang_subsumption_prunes_total" (fun () ->
      Automata.Lang.subsumption_prunes_total ());
  {
    reg;
    started_at;
    start_ns;
    requests;
    latency;
    inflight;
    connections;
    sessions;
    trips;
    wire;
    slow;
    sample_every =
      (match trace_sample with Some n when n >= 1 -> Some n | _ -> None);
    trace_dir;
    sample_seen = Atomic.make 0;
    capturing = Atomic.make false;
    last = Atomic.make None;
    taken;
    skipped;
    snap_loads;
    snap_saves;
    snap_load_ns;
    snap_bytes;
    snap_sections;
  }

let registry t = t.reg
let pid _ = Unix.getpid ()
let started_at t = t.started_at

let uptime_ns t =
  Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t.start_ns)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let connection_opened t = M.Gauge.add t.connections 1
let connection_closed t = M.Gauge.sub t.connections 1
let session_started t = M.Counter.inc t.sessions
let request_started t = M.Gauge.add t.inflight 1
let request_finished t = M.Gauge.sub t.inflight 1

let canon_method t m = if Hashtbl.mem t.latency m then m else "other"

let record_request t ~meth ~status ~dur_ns =
  let m = canon_method t meth in
  (match Hashtbl.find_opt t.requests (m ^ "/" ^ status) with
  | Some c -> M.Counter.inc c
  | None -> ());
  match Hashtbl.find_opt t.latency m with
  | Some h -> M.Histogram.observe h dur_ns
  | None -> ()

let budget_trip t (l : Obs.Trace.limit) =
  match Hashtbl.find_opt t.trips (Obs.Trace.limit_to_string l) with
  | Some c -> M.Counter.inc c
  | None -> ()

let wire_error t code =
  match Hashtbl.find_opt t.wire code with
  | Some c -> M.Counter.inc c
  | None -> ()

let slow_request t = M.Counter.inc t.slow

let snapshot_loaded t ~dur_ns ~bytes ~sections =
  M.Counter.inc t.snap_loads;
  M.Gauge.set t.snap_load_ns dur_ns;
  M.Gauge.set t.snap_bytes bytes;
  M.Gauge.set t.snap_sections sections

let snapshot_saved t ~bytes =
  M.Counter.inc t.snap_saves;
  M.Gauge.set t.snap_bytes bytes

(* ------------------------------------------------------------------ *)
(* Sampled request tracing                                             *)
(* ------------------------------------------------------------------ *)

(* [sample_seen] counts every request exactly (one atomic RMW), so
   "every Nth" is deterministic under concurrency.  The actual capture
   installs the process-global trace session, so at most one may run at
   a time: a CAS slot guards it, and a hit that loses the race runs
   untraced and counts in [swsd_trace_samples_skipped] instead of
   clobbering the live capture. *)
let with_sample t ~trace_id f =
  match t.sample_every with
  | None -> f ()
  | Some n ->
    let k = Atomic.fetch_and_add t.sample_seen 1 + 1 in
    if k mod n <> 0 then f ()
    else if not (Atomic.compare_and_set t.capturing false true) then begin
      M.Counter.inc t.skipped;
      f ()
    end
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set t.capturing false)
        (fun () ->
          let r, session = Obs.Trace.with_session f in
          Atomic.set t.last (Some (Obs.Trace.to_chrome session));
          M.Counter.inc t.taken;
          (match t.trace_dir with
          | Some dir -> (
            let path = Filename.concat dir ("trace-" ^ trace_id ^ ".json") in
            try Obs.Trace.write_chrome session path
            with Sys_error _ | Unix.Unix_error _ -> ())
          | None -> ());
          r)

let last_trace t = Atomic.get t.last
let sample_every t = t.sample_every
let samples_taken t = M.Counter.value t.taken
let samples_skipped t = M.Counter.value t.skipped

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let cache_fields =
  [
    ("hits", fun (g : Cache.Store.Gauges.t) -> g.Cache.Store.Gauges.hits);
    ("misses", fun g -> g.Cache.Store.Gauges.misses);
    ("evictions", fun g -> g.Cache.Store.Gauges.evictions);
    ("entries", fun g -> g.Cache.Store.Gauges.entries);
    ("bytes", fun g -> g.Cache.Store.Gauges.bytes);
  ]

(* Bridge the engine's per-class cache gauges into the registry.  The
   class set is open (stores register lazily), so children are created
   get-or-create at scrape time — a mutex acquisition per scrape, not per
   request.  [Gauge.set] honours the global switch, which is what the
   bench's metrics-off arm wants: no write traffic at all. *)
let refresh t =
  List.iter
    (fun (cls, gauges) ->
      List.iter
        (fun (field, get) ->
          let g =
            M.gauge t.reg ~help:"Bridged cache gauges, by class and field"
              ~labels:[ ("class", cls) ]
              ("swsd_cache_" ^ field)
          in
          M.Gauge.set g (get gauges))
        cache_fields)
    (Sws.Engine.cache_snapshot ())

let to_json t =
  refresh t;
  M.to_json t.reg

let to_prometheus t =
  refresh t;
  M.to_prometheus t.reg
