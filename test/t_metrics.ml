(* Tests for the telemetry plane (ISSUE 8): the Obs.Metrics registry
   (on/off identity, sharded-counter exactness under domains, exposition
   validity), Trace.Hist.quantile against a sorted-sample oracle, the
   sampler's exact every-Nth accounting under concurrency, and the
   daemon's scrape endpoints over a real socket. *)

module J = Obs.Json
module M = Obs.Metrics
module P = Server.Protocol

let check = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* Every test leaves the process-wide switch the way the rest of the
   suite expects it: on. *)
let wrap (name, speed, run) =
  ( name,
    speed,
    fun args ->
      M.set_enabled true;
      Fun.protect ~finally:(fun () -> M.set_enabled true) (fun () -> run args)
  )

(* ------------------------------------------------------------------ *)
(* Hist.quantile vs a sorted-sample oracle                             *)
(* ------------------------------------------------------------------ *)

(* The documented convention: [quantile t q] is the exclusive upper
   bound of the bucket holding the rank-[ceil (q * count)] smallest
   observation.  Bucketing is monotone in the value, so the oracle is:
   sort the sample, take the ranked element, report its bucket's upper
   bound. *)
let prop_quantile_oracle =
  let gen =
    QCheck.pair
      QCheck.(list_of_size Gen.(1 -- 200) (map (fun n -> n land max_int) int))
      (QCheck.float_range 0.0 1.0)
  in
  QCheck.Test.make ~count:500 ~name:"Hist.quantile matches sorted oracle" gen
    (fun (sample, q) ->
      let h = Obs.Trace.Hist.create () in
      List.iter (Obs.Trace.Hist.observe h) sample;
      let sorted = List.sort compare sample in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let ranked = List.nth sorted (rank - 1) in
      let _, hi =
        Obs.Trace.Hist.bucket_bounds (Obs.Trace.Hist.bucket_index ranked)
      in
      Obs.Trace.Hist.quantile h q = hi)

let test_quantile_corners () =
  let h = Obs.Trace.Hist.create () in
  check_int "empty histogram" 0 (Obs.Trace.Hist.quantile h 0.5);
  Obs.Trace.Hist.observe h 100;
  (* 100 lands in [64, 128) *)
  check_int "single value p50" 128 (Obs.Trace.Hist.quantile h 0.5);
  check_int "q clamps below" 128 (Obs.Trace.Hist.quantile h (-1.));
  check_int "q clamps above" 128 (Obs.Trace.Hist.quantile h 2.);
  Obs.Trace.Hist.observe h 1_000_000;
  check_int "p100 is the top value's bucket bound" (1 lsl 20)
    (Obs.Trace.Hist.quantile h 1.0)

(* ------------------------------------------------------------------ *)
(* On/off identity                                                     *)
(* ------------------------------------------------------------------ *)

let test_on_off_identity () =
  let reg = M.create () in
  let c = M.counter reg "work_items" in
  let h = M.histogram reg "work_ns" in
  let g = M.gauge reg "work_level" in
  let instrumented n =
    let acc = ref 0 in
    for i = 1 to n do
      M.Counter.inc c;
      M.Gauge.set g i;
      let t0 = Obs.Clock.now_ns () in
      acc := !acc + (i * i);
      M.Histogram.observe h (Int64.to_int (Obs.Clock.elapsed_ns t0))
    done;
    !acc
  in
  M.set_enabled true;
  let r_on = instrumented 1000 in
  check_int "counter counts when on" 1000 (M.Counter.value c);
  check_int "gauge set when on" 1000 (M.Gauge.value g);
  check_int "histogram counts when on" 1000
    (Obs.Trace.Hist.count (M.Histogram.snapshot h));
  M.set_enabled false;
  let r_off = instrumented 1000 in
  check_int "identical result with metrics off" r_on r_off;
  check_int "counter frozen when off" 1000 (M.Counter.value c);
  check_int "gauge frozen when off" 1000 (M.Gauge.value g);
  check_int "histogram frozen when off" 1000
    (Obs.Trace.Hist.count (M.Histogram.snapshot h));
  (* export keeps working while recording is off *)
  check "exposition still renders" true
    (String.length (M.to_prometheus reg) > 0);
  M.set_enabled true;
  M.Counter.inc c ~by:(-5);
  check_int "negative increments are dropped" 1000 (M.Counter.value c)

(* ------------------------------------------------------------------ *)
(* Sharded counters under real domains                                 *)
(* ------------------------------------------------------------------ *)

let test_domain_stress () =
  let reg = M.create () in
  let c = M.counter reg "stress_total" in
  let h = M.histogram reg "stress_ns" in
  let per_domain = 10_000 in
  let body () =
    for i = 1 to per_domain do
      M.Counter.inc c;
      if i mod 10 = 0 then M.Counter.inc c ~by:2;
      M.Histogram.observe h i
    done
  in
  let domains = List.init 8 (fun _ -> Domain.spawn body) in
  List.iter Domain.join domains;
  let expected = 8 * (per_domain + (2 * (per_domain / 10))) in
  check_int "merged counter is exact" expected (M.Counter.value c);
  let m = M.Histogram.snapshot h in
  check_int "merged histogram count is exact" (8 * per_domain)
    (Obs.Trace.Hist.count m);
  check_int "merged histogram sum is exact"
    (8 * (per_domain * (per_domain + 1) / 2))
    (Obs.Trace.Hist.sum_ns m)

(* ------------------------------------------------------------------ *)
(* Registration validation                                             *)
(* ------------------------------------------------------------------ *)

let test_registration_validation () =
  let reg = M.create () in
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check "invalid metric name" true
    (raises (fun () -> M.counter reg "0bad name"));
  check "invalid label name" true
    (raises (fun () -> M.counter reg ~labels:[ ("0x", "v") ] "ok_name"));
  check "reserved __ label name" true
    (raises (fun () -> M.counter reg ~labels:[ ("__x", "v") ] "ok_name"));
  check "duplicate label name" true
    (raises (fun () ->
         M.counter reg ~labels:[ ("a", "1"); ("a", "2") ] "ok_name2"));
  let _c = M.counter reg "kinded" in
  check "kind clash" true (raises (fun () -> M.gauge reg "kinded"));
  let _l = M.counter reg ~labels:[ ("a", "1") ] "labeled" in
  check "label-name-set mismatch" true
    (raises (fun () -> M.counter reg ~labels:[ ("b", "1") ] "labeled"));
  (* get-or-create: both handles feed one series, label order ignored *)
  let c1 = M.counter reg ~labels:[ ("x", "1"); ("y", "2") ] "shared" in
  let c2 = M.counter reg ~labels:[ ("y", "2"); ("x", "1") ] "shared" in
  M.Counter.inc c1;
  M.Counter.inc c2;
  check_int "same child through both handles" 2 (M.Counter.value c1)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition shape                                         *)
(* ------------------------------------------------------------------ *)

(* Inverse of [escape_label_value], for the round-trip property. *)
let unescape_label_value s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '\\' && i + 1 < n then begin
        (match s.[i + 1] with
        | '\\' -> Buffer.add_char buf '\\'
        | '"' -> Buffer.add_char buf '"'
        | 'n' -> Buffer.add_char buf '\n'
        | c ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let prop_escape_roundtrip =
  QCheck.Test.make ~count:500 ~name:"label value escaping round-trips"
    QCheck.string (fun s ->
      let escaped = M.escape_label_value s in
      (* the escaped form may not contain a bare quote or newline *)
      let bare_quote = ref false in
      String.iteri
        (fun i c ->
          if (c = '"' || c = '\n') && (i = 0 || escaped.[i - 1] <> '\\') then
            bare_quote := true)
        escaped;
      (not !bare_quote) && String.equal (unescape_label_value escaped) s)

let prop_label_name_grammar =
  QCheck.Test.make ~count:500 ~name:"label-name validator matches grammar"
    QCheck.(string_of_size Gen.(0 -- 12))
    (fun s ->
      let oracle =
        String.length s > 0
        && (not (String.length s >= 2 && s.[0] = '_' && s.[1] = '_'))
        && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
        && String.for_all
             (function
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
               | _ -> false)
             s
      in
      M.valid_label_name s = oracle)

(* Validate a whole exposition page: every sample line parses, names are
   valid, every family has exactly one TYPE, no series repeats, counters
   expose with _total, and each histogram's +Inf bucket equals its
   count. *)
let validate_exposition body =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
  in
  let typed = Hashtbl.create 16 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ kind ] ->
          check (Printf.sprintf "valid TYPE name %s" name) true
            (M.valid_metric_name name);
          check (Printf.sprintf "known kind %s" kind) true
            (List.mem kind [ "counter"; "gauge"; "histogram" ]);
          check (Printf.sprintf "single TYPE for %s" name) false
            (Hashtbl.mem typed name);
          Hashtbl.replace typed name kind
        | "#" :: "HELP" :: name :: _ ->
          check (Printf.sprintf "valid HELP name %s" name) true
            (M.valid_metric_name name)
        | _ -> Alcotest.failf "bad comment line: %s" line
      end
      else begin
        (* <name>[{labels}] <int> — the value never contains a space *)
        let sp =
          match String.rindex_opt line ' ' with
          | Some i -> i
          | None -> Alcotest.failf "sample line without value: %s" line
        in
        let series = String.sub line 0 sp in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        check (Printf.sprintf "integer value in %s" line) true
          (int_of_string_opt value <> None);
        let name =
          match String.index_opt series '{' with
          | Some i -> String.sub series 0 i
          | None -> series
        in
        check (Printf.sprintf "valid sample name %s" name) true
          (M.valid_metric_name name);
        check (Printf.sprintf "duplicate series %s" series) false
          (Hashtbl.mem seen series);
        Hashtbl.replace seen series ();
        (* the sample must belong to a typed family *)
        let strip suffix n =
          let ls = String.length suffix and ln = String.length n in
          if ln > ls && String.equal (String.sub n (ln - ls) ls) suffix then
            Some (String.sub n 0 (ln - ls))
          else None
        in
        let families =
          name
          :: List.filter_map
               (fun s -> strip s name)
               [ "_bucket"; "_sum"; "_count" ]
        in
        check (Printf.sprintf "typed family for %s" name) true
          (List.exists (Hashtbl.mem typed) families)
      end)
    lines;
  typed

let test_prometheus_exposition () =
  let reg = M.create () in
  let c =
    M.counter reg ~help:"nasty \"help\" with \\ and\nnewline"
      ~labels:[ ("method", "compose"); ("status", "ok") ]
      "req"
  in
  M.Counter.inc c ~by:7;
  let nasty =
    M.counter reg
      ~labels:[ ("method", "we\"ird\\val\nue"); ("status", "ok") ]
      "req"
  in
  M.Counter.inc nasty;
  let g = M.gauge reg ~help:"a level" "level" in
  M.Gauge.set g 42;
  M.gauge_fn reg "broken_callback" (fun () -> failwith "boom");
  let h = M.histogram reg ~help:"latencies" "dur_ns" in
  List.iter (M.Histogram.observe h) [ 1; 100; 100_000; 10_000_000 ];
  let body = M.to_prometheus reg in
  let typed = validate_exposition body in
  check_string "counter exposed with _total" "counter"
    (try Hashtbl.find typed "req_total" with Not_found -> "?");
  check_string "histogram typed" "histogram"
    (try Hashtbl.find typed "dur_ns" with Not_found -> "?");
  check "callback exception exports 0" true
    (List.exists
       (fun l -> String.equal l "broken_callback 0")
       (String.split_on_char '\n' body));
  (* +Inf bucket equals _count *)
  let find_line p =
    List.find_opt
      (fun l ->
        String.length l >= String.length p
        && String.equal (String.sub l 0 (String.length p)) p)
      (String.split_on_char '\n' body)
  in
  let value_of line =
    match String.rindex_opt line ' ' with
    | Some i ->
      int_of_string (String.sub line (i + 1) (String.length line - i - 1))
    | None -> -1
  in
  (match (find_line "dur_ns_bucket{le=\"+Inf\"}", find_line "dur_ns_count") with
  | Some binf, Some cnt ->
    check_int "+Inf bucket equals count" (value_of cnt) (value_of binf);
    check_int "all four observations" 4 (value_of cnt)
  | _ -> Alcotest.fail "histogram series missing");
  check_int "expose_name appends _total once" 0
    (String.compare (M.expose_name "x_total" `Counter) "x_total")

(* ------------------------------------------------------------------ *)
(* Daemon-level: scripted workload, jobs 1 = jobs 4 snapshots          *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

let with_daemon ?(configure = fun c -> c) f =
  incr sock_counter;
  let path =
    Printf.sprintf "/tmp/swsd-mtest-%d-%d.sock" (Unix.getpid ()) !sock_counter
  in
  let cfg = configure (Server.Daemon.default_config (P.Unix_sock path)) in
  let daemon = Server.Daemon.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop daemon)
    (fun () -> f daemon)

let with_client addr f =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let call_exn c ~meth ~params =
  match Server.Client.call c ~meth ~params with
  | Ok j -> j
  | Error e -> Alcotest.failf "transport error: %s" e

let scripted_workload daemon =
  with_client (Server.Daemon.bound_addr daemon) (fun c ->
      ignore (call_exn c ~meth:"ping" ~params:[]);
      ignore
        (call_exn c ~meth:"register"
           ~params:[ ("name", J.String "r1"); ("spec", J.String "ab") ]);
      ignore
        (call_exn c ~meth:"check"
           ~params:[ ("service", J.String "(ab)+c") ]);
      ignore
        (call_exn c ~meth:"compose"
           ~params:
             [
               ("goal", J.String "(ab)*");
               ("components", J.List [ J.String "ab"; J.String "ba" ]);
             ]);
      (* a one-node mdtb budget can only trip: the budget-trip counter arm *)
      ignore
        (call_exn c ~meth:"compose"
           ~params:
             [
               ("goal", J.String "(ab)*");
               ("components", J.List [ J.String "ab"; J.String "ba" ]);
               ("mode", J.String "mdtb");
               ("budget", J.Obj [ ("max_nodes", J.Int 1) ]);
             ]);
      ignore (call_exn c ~meth:"frobnicate" ~params:[]);
      ignore (call_exn c ~meth:"stats" ~params:[]))

(* The deterministic slice of the exposition: counter series.  Gauges
   and histograms carry wall-clock and level readings that legitimately
   differ across runs. *)
let counter_lines tel =
  List.filter
    (fun l ->
      List.exists
        (fun p ->
          String.length l >= String.length p
          && String.equal (String.sub l 0 (String.length p)) p)
        [
          "swsd_requests_total";
          "swsd_budget_trips_total";
          "swsd_wire_errors_total";
          "swsd_sessions_total";
          "swsd_slow_requests_total";
        ])
    (String.split_on_char '\n' (Server.Telemetry.to_prometheus tel))
  |> List.sort compare

let test_snapshots_equal_across_jobs () =
  let run jobs =
    Par.Pool.set_jobs (Some jobs);
    Fun.protect
      ~finally:(fun () -> Par.Pool.set_jobs None)
      (fun () ->
        Sws.Engine.cache_clear_all ();
        with_daemon
          ~configure:(fun c -> { c with Server.Daemon.jobs = Some jobs })
          (fun daemon ->
            scripted_workload daemon;
            counter_lines (Server.Daemon.telemetry daemon)))
  in
  let seq = run 1 in
  let par = run 4 in
  check_int "same series count" (List.length seq) (List.length par);
  List.iteri
    (fun i (a, b) ->
      check_string (Printf.sprintf "series %d identical across jobs" i) a b)
    (List.combine seq par);
  (* and the script left real marks: a trip, an error, five ok replies *)
  check "budget trip counted" true
    (List.mem "swsd_budget_trips_total{limit=\"nodes\"} 1" seq);
  check "unknown method counted under other/error" true
    (List.mem "swsd_requests_total{method=\"other\",status=\"error\"} 1" seq)

(* ------------------------------------------------------------------ *)
(* Sampler determinism under concurrency                               *)
(* ------------------------------------------------------------------ *)

let test_sampler_exact_every_nth () =
  with_daemon
    ~configure:(fun c -> { c with Server.Daemon.trace_sample = Some 3 })
    (fun daemon ->
      let addr = Server.Daemon.bound_addr daemon in
      let clients = 3 and per_client = 10 in
      let failures = Atomic.make 0 in
      let client () =
        with_client addr (fun c ->
            for _ = 1 to per_client do
              match Server.Client.call c ~meth:"ping" ~params:[] with
              | Ok _ -> ()
              | Error _ -> Atomic.incr failures
            done)
      in
      let threads = List.init clients (fun _ -> Thread.create client ()) in
      List.iter Thread.join threads;
      check_int "no transport failures" 0 (Atomic.get failures);
      let tel = Server.Daemon.telemetry daemon in
      let due = clients * per_client / 3 in
      check_int "every 3rd request is a sampler hit"
        due
        (Server.Telemetry.samples_taken tel
        + Server.Telemetry.samples_skipped tel);
      check "at least one capture landed" true
        (Server.Telemetry.samples_taken tel >= 1);
      check "last trace retained" true
        (Server.Telemetry.last_trace tel <> None);
      (* and the wire method sees the same numbers *)
      with_client addr (fun c ->
          let r = call_exn c ~meth:"trace" ~params:[] in
          match J.member "result" r with
          | Some res ->
            check "trace method carries the capture" true
              (match J.member "trace" res with
              | Some J.Null | None -> false
              | Some _ -> true);
            check "sample_every echoed" true
              (J.member "sample_every" res = Some (J.Int 3))
          | None -> Alcotest.fail "no result in trace response"))

(* ------------------------------------------------------------------ *)
(* The scrape endpoints over a real socket                             *)
(* ------------------------------------------------------------------ *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      (try drain () with Unix.Unix_error _ -> ());
      let raw = Buffer.contents buf in
      let header_end =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if
            raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
            && raw.[i + 3] = '\n'
          then i + 4
          else find (i + 1)
        in
        find 0
      in
      let head = String.sub raw 0 header_end in
      let body = String.sub raw header_end (String.length raw - header_end) in
      let code =
        match String.split_on_char ' ' head with
        | _ :: c :: _ -> int_of_string_opt c |> Option.value ~default:0
        | _ -> 0
      in
      (code, head, body))

let test_scrape_endpoints () =
  with_daemon
    ~configure:(fun c -> { c with Server.Daemon.metrics_port = Some 0 })
    (fun daemon ->
      let port =
        match Server.Daemon.metrics_bound_port daemon with
        | Some p -> p
        | None -> Alcotest.fail "no metrics listener bound"
      in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh
          && (String.equal (String.sub hay i nn) needle || go (i + 1))
        in
        nn = 0 || go 0
      in
      (* scrape before any request: families exist, counters at zero *)
      let code, head, body = http_get port "/metrics" in
      check_int "GET /metrics is 200" 200 code;
      check "prometheus content type" true
        (contains head "text/plain; version=0.0.4");
      ignore (validate_exposition body);
      check "requests family typed" true
        (contains body "# TYPE swsd_requests_total counter");
      check "latency family typed" true
        (contains body "# TYPE swsd_request_duration_ns histogram");
      let ping_line body =
        List.find_opt
          (fun l ->
            contains l "swsd_requests_total{method=\"ping\",status=\"ok\"}")
          (String.split_on_char '\n' body)
      in
      let value_of line =
        match String.rindex_opt line ' ' with
        | Some i ->
          int_of_string (String.sub line (i + 1) (String.length line - i - 1))
        | None -> -1
      in
      let before =
        match ping_line body with
        | Some l -> value_of l
        | None -> Alcotest.fail "no ping series in first scrape"
      in
      check_int "ping counter starts at zero" 0 before;
      (* drive the wire protocol, then re-scrape on a fresh connection *)
      with_client (Server.Daemon.bound_addr daemon) (fun c ->
          ignore (call_exn c ~meth:"ping" ~params:[]);
          ignore (call_exn c ~meth:"ping" ~params:[]);
          (* engine work, so the bridged cache gauges have classes *)
          ignore
            (call_exn c ~meth:"check"
               ~params:[ ("service", J.String "(ab)+c") ]);
          let r = call_exn c ~meth:"ping" ~params:[] in
          (match J.member "result" r with
          | Some res ->
            check "ping echoes protocol version" true
              (J.member "version" res = Some (J.Int P.version))
          | None -> Alcotest.fail "no ping result");
          let m = call_exn c ~meth:"metrics" ~params:[] in
          match J.member "result" m with
          | Some res ->
            check "metrics method carries version" true
              (J.member "version" res = Some (J.Int P.version));
            check "metrics method carries pid" true
              (J.member "pid" res = Some (J.Int (Unix.getpid ())));
            check "uptime is positive" true
              (match J.member "uptime_ns" res with
              | Some (J.Int n) -> n > 0
              | _ -> false)
          | None -> Alcotest.fail "no metrics result");
      let code2, _, body2 = http_get port "/metrics" in
      check_int "second scrape is 200" 200 code2;
      check "cache gauges bridged" true
        (contains body2 "# TYPE swsd_cache_hits gauge");
      let after =
        match ping_line body2 with
        | Some l -> value_of l
        | None -> Alcotest.fail "no ping series in second scrape"
      in
      check_int "ping counter advanced by the session" 3 after;
      (* health: 200 and well-formed while idle *)
      let hcode, _, hbody = http_get port "/healthz" in
      check_int "GET /healthz is 200" 200 hcode;
      (match J.of_string (String.trim hbody) with
      | Ok health ->
        check "healthz status ok" true
          (J.member "status" health = Some (J.String "ok"))
      | Error e -> Alcotest.failf "healthz body is not JSON: %s" e);
      let ncode, _, _ = http_get port "/nope" in
      check_int "unknown path is 404" 404 ncode)

(* ------------------------------------------------------------------ *)
(* Lazy language-engine gauges                                         *)
(* ------------------------------------------------------------------ *)

(* The three swsd_lang_* gauges bridge Automata.Lang's process-wide
   counters into every scrape: after one antichain decision the
   states-explored and peak readings are positive, and the page still
   validates as a whole. *)
let test_lang_gauges_exposed () =
  let tel = Server.Telemetry.create () in
  let n =
    Automata.Nfa.of_regex ~alphabet_size:2 (Automata.Regex.parse "(ab)*ab")
  in
  if not (Automata.Lang.equivalent n n) then
    Alcotest.fail "self-equivalence must hold";
  let body = Server.Telemetry.to_prometheus tel in
  ignore (validate_exposition body);
  let lines = String.split_on_char '\n' body in
  let reading name =
    match
      List.find_opt
        (fun l ->
          String.length l > String.length name
          && String.equal (String.sub l 0 (String.length name)) name
          && l.[String.length name] = ' ')
        lines
    with
    | Some line -> (
      match String.rindex_opt line ' ' with
      | Some i ->
        int_of_string (String.sub line (i + 1) (String.length line - i - 1))
      | None -> Alcotest.failf "%s: unparsable sample" name)
    | None -> Alcotest.failf "%s: series missing from the exposition" name
  in
  check "states explored positive" true
    (reading "swsd_lang_states_explored_total" > 0);
  check "antichain peak positive" true
    (reading "swsd_lang_antichain_peak" > 0);
  check "subsumption prunes nonnegative" true
    (reading "swsd_lang_subsumption_prunes_total" >= 0)

let suite =
  List.map wrap
    [
      QCheck_alcotest.to_alcotest prop_quantile_oracle;
      ("quantile corners", `Quick, test_quantile_corners);
      ("metrics on/off identity", `Quick, test_on_off_identity);
      ("sharded counters exact under 8 domains", `Quick, test_domain_stress);
      ("registration validation", `Quick, test_registration_validation);
      QCheck_alcotest.to_alcotest prop_escape_roundtrip;
      QCheck_alcotest.to_alcotest prop_label_name_grammar;
      ("prometheus exposition shape", `Quick, test_prometheus_exposition);
      ( "counter snapshots identical across jobs",
        `Quick,
        test_snapshots_equal_across_jobs );
      ("sampler: every Nth counts exactly", `Quick, test_sampler_exact_every_nth);
      ("scrape endpoints over a real socket", `Quick, test_scrape_endpoints);
      ("lang engine gauges exposed", `Quick, test_lang_gauges_exposed);
    ]
