(* Tests for the observability layer (Obs): the zero-cost-when-off
   contract of the trace sink, ring-buffer bounding, exporter output that
   survives a round-trip through the JSON parser, the log-2 histogram
   bucketing laws, and the provenance records the engine attaches to
   every bounded run. *)

module R = Relational
module Prop = Proplogic.Prop
open Sws

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let reset () =
  Engine.Stats.reset Engine.Stats.global;
  Obs.Trace.clear_provenances ();
  Obs.Trace.uninstall ()

let wrap (name, speed, run) =
  ( name,
    speed,
    fun args ->
      reset ();
      Fun.protect ~finally:reset (fun () -> run args) )

(* A small PL workload that exercises spans (vector-DFA searches), counters
   (sat calls, cache hits) and a scan (the nonrecursive SAT path). *)
let v = Prop.var
let workload_service () = Reductions.sws_of_sat (Prop.And (v "x", Prop.Or (v "y", v "z")))

let run_workload () =
  let sws = workload_service () in
  ( Decision.pl_non_emptiness sws,
    Decision.pl_validation sws ~output:true,
    Decision.pl_nr_non_emptiness sws )

(* ------------------------------------------------------------------ *)
(* Zero cost when off; identical results either way                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_silent () =
  check "no session at start" false (Obs.Trace.enabled ());
  (* emissions without a session vanish: a later session sees nothing *)
  Obs.Trace.emit Obs.Trace.Sat_call;
  ignore (Obs.Trace.span "phantom" (fun () -> 42));
  let session = Obs.Trace.install () in
  check_int "fresh session is empty" 0 (Obs.Trace.event_count session);
  check_int "fresh session dropped none" 0 (Obs.Trace.dropped session);
  check "fresh session has no histograms" true
    (Obs.Trace.histograms session = []);
  Obs.Trace.uninstall ();
  check "uninstall disables" false (Obs.Trace.enabled ())

let test_results_identical_on_off () =
  let off = run_workload () in
  let on, session = Obs.Trace.with_session run_workload in
  check "tracing does not change answers" true (off = on);
  check "enabled run recorded events" true (Obs.Trace.event_count session > 0);
  (* the disabled run after with_session is silent again *)
  check "with_session restores disabled" false (Obs.Trace.enabled ());
  let off' = run_workload () in
  check "post-session run still agrees" true (off = off')

let test_ring_bounds () =
  let session = Obs.Trace.install ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Trace.emit (Obs.Trace.Depth_started i)
  done;
  Obs.Trace.uninstall ();
  check_int "capacity bounds survivors" 4 (Obs.Trace.event_count session);
  check_int "overflow counted" 6 (Obs.Trace.dropped session);
  let depths =
    List.filter_map
      (function _, Obs.Trace.Depth_started d -> Some d | _ -> None)
      (Obs.Trace.events session)
  in
  Alcotest.(check (list int)) "oldest overwritten, order kept" [ 7; 8; 9; 10 ]
    depths

(* ------------------------------------------------------------------ *)
(* Exporters round-trip through the parser                             *)
(* ------------------------------------------------------------------ *)

let test_chrome_roundtrip () =
  let _, session = Obs.Trace.with_session run_workload in
  let chrome = Obs.Trace.to_chrome session in
  match Obs.Json.of_string (Obs.Json.to_string chrome) with
  | Error msg -> Alcotest.fail ("chrome export does not parse: " ^ msg)
  | Ok parsed ->
    let events =
      Option.bind (Obs.Json.member "traceEvents" parsed) Obs.Json.to_list_opt
    in
    (match events with
    | None -> Alcotest.fail "traceEvents missing or not a list"
    | Some evs ->
      check_int "one JSON record per surviving event"
        (Obs.Trace.event_count session)
        (List.length evs);
      check "every event has a phase and a timestamp" true
        (List.for_all
           (fun e ->
             Option.is_some (Obs.Json.member "ph" e)
             && Option.is_some
                  (Option.bind (Obs.Json.member "ts" e) Obs.Json.to_float_opt))
           evs));
    check "provenance rides along" true
      (match Obs.Json.member "provenance" parsed with
      | Some (Obs.Json.List (_ :: _)) -> true
      | _ -> false)

let test_jsonl_roundtrip () =
  let _, session = Obs.Trace.with_session run_workload in
  let lines = Obs.Trace.to_jsonl session in
  check_int "one line per event" (Obs.Trace.event_count session)
    (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.of_string line with
      | Error msg -> Alcotest.fail ("jsonl line does not parse: " ^ msg)
      | Ok obj ->
        check "line carries an event name" true
          (match
             Option.bind (Obs.Json.member "event" obj) Obs.Json.to_string_opt
           with
          | Some _ -> true
          | None -> false))
    lines

(* ------------------------------------------------------------------ *)
(* Histogram bucketing laws                                            *)
(* ------------------------------------------------------------------ *)

(* arbitrary nonnegative int over the full range, not just small values:
   the masking keeps [min_int] out (its [abs] is itself) *)
let any_nat = QCheck.(map (fun n -> n land max_int) int)

let prop_bucket_bounds =
  QCheck.Test.make ~count:500 ~name:"bucket_bounds contains bucket_index"
    any_nat
    (fun n ->
      let lo, hi = Obs.Trace.Hist.(bucket_bounds (bucket_index n)) in
      lo <= n && (n < hi || (hi = max_int && n = max_int)))

let prop_bucket_monotone =
  QCheck.Test.make ~count:200 ~name:"bucket_index is monotone"
    (QCheck.pair any_nat any_nat)
    (fun (a, b) ->
      let a, b = (min a b, max a b) in
      Obs.Trace.Hist.bucket_index a <= Obs.Trace.Hist.bucket_index b)

let prop_hist_merge =
  QCheck.Test.make ~count:100 ~name:"hist merge adds counts and sums"
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let open Obs.Trace.Hist in
      let h1 = create () and h2 = create () in
      List.iter (observe h1) xs;
      List.iter (observe h2) ys;
      let m = merge h1 h2 in
      count m = List.length xs + List.length ys
      && sum_ns m = List.fold_left ( + ) 0 xs + List.fold_left ( + ) 0 ys)

let test_hist_observe () =
  let open Obs.Trace.Hist in
  let h = create () in
  observe h 0;
  observe h 1;
  observe h 2;
  observe h 3;
  observe h 1024;
  observe h (-5) (* clamps to 0 *);
  check_int "count" 6 (count h);
  check_int "sum" 1030 (sum_ns h);
  Alcotest.(check (list (pair int int)))
    "buckets: [0,2) x3, [2,4) x2, [1024,2048) x1"
    [ (0, 3); (1, 2); (10, 1) ]
    (buckets h)

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let test_provenance_recorded () =
  check "clean slate" true (Obs.Trace.last_provenance () = None);
  (* provenance is recorded even with tracing off *)
  check "tracing off" false (Obs.Trace.enabled ());
  let sws = workload_service () in
  (* content-keyed result stores may hold answers computed by earlier
     tests on an equal service; drop them so this run really explores
     the vector DFA and moves counters *)
  Engine.cache_clear_all ();
  (match Decision.pl_non_emptiness sws with
  | Decision.Yes _ -> ()
  | _ -> Alcotest.fail "satisfiable service must be nonempty");
  (match Obs.Trace.last_provenance () with
  | None -> Alcotest.fail "pl_non_emptiness must record provenance"
  | Some p ->
    Alcotest.(check string) "procedure name" "pl_non_emptiness"
      p.Obs.Trace.procedure;
    check "decided true" true (p.Obs.Trace.outcome = Obs.Trace.Decided true);
    check "nonzero duration" true (p.Obs.Trace.duration_ns >= 0L);
    (* the AFA path explores its vector DFA on a cleared cache, so some
       counter must have moved during this run *)
    check "counters attributed" true
      (List.exists (fun (_, n) -> n > 0) p.Obs.Trace.counters));
  (* a scan-based procedure reports the scan shape *)
  ignore (Decision.pl_nr_non_emptiness sws);
  (match Obs.Trace.last_provenance () with
  | Some p ->
    Alcotest.(check string) "scan name" "pl_nr_non_emptiness"
      p.Obs.Trace.procedure;
    check "scan outcome is depth-shaped" true
      (match p.Obs.Trace.outcome with
      | Obs.Trace.Found_at _ | Obs.Trace.Completed _ -> true
      | _ -> false)
  | None -> Alcotest.fail "scan must record provenance");
  check_int "both runs retained" 2 (List.length (Obs.Trace.provenances ()))

let test_provenance_amend_and_cap () =
  let mk i =
    {
      Obs.Trace.procedure = Printf.sprintf "p%d" i;
      outcome = Obs.Trace.Decided true;
      first_depth = 0;
      last_depth = 0;
      counters = [];
      duration_ns = 0L;
    }
  in
  List.iter (fun i -> Obs.Trace.record_provenance (mk i)) (List.init 100 Fun.id);
  let ps = Obs.Trace.provenances () in
  check_int "retention cap" Obs.Trace.keep_provenances (List.length ps);
  Alcotest.(check string) "newest first" "p99"
    (List.hd ps).Obs.Trace.procedure;
  Obs.Trace.amend_last_provenance (fun p ->
      { p with Obs.Trace.outcome = Obs.Trace.Tripped `Candidates });
  (match Obs.Trace.last_provenance () with
  | Some p ->
    check "amended outcome" true
      (p.Obs.Trace.outcome = Obs.Trace.Tripped `Candidates);
    Alcotest.(check string) "amend keeps identity" "p99" p.Obs.Trace.procedure
  | None -> Alcotest.fail "provenance lost by amend");
  check_int "amend does not grow the list" Obs.Trace.keep_provenances
    (List.length (Obs.Trace.provenances ()));
  (* provenance JSON parses back *)
  match
    Obs.Json.of_string
      (Obs.Json.to_string
         (Obs.Trace.provenance_to_json (Option.get (Obs.Trace.last_provenance ()))))
  with
  | Ok obj ->
    let outcome = Obs.Json.member "outcome" obj in
    let field k =
      Option.bind (Option.bind outcome (Obs.Json.member k))
        Obs.Json.to_string_opt
    in
    check "outcome serialized" true
      (field "kind" = Some "tripped" && field "limit" = Some "candidates")
  | Error msg -> Alcotest.fail ("provenance JSON does not parse: " ^ msg)

let test_budget_trip_traced () =
  (* a starved scan both records a Tripped provenance and emits the
     Budget_tripped event exactly once *)
  let scan () =
    Engine.scan ~name:"starved" ~budget:(Engine.Budget.of_depth 1) (fun m _ ->
        Engine.Meter.tick m;
        None)
  in
  let result, session = Obs.Trace.with_session scan in
  (match result with
  | Engine.Exhausted e -> check "depth trip" true (e.Engine.limit = `Depth)
  | _ -> Alcotest.fail "starved scan must exhaust");
  let trips =
    List.filter
      (function _, Obs.Trace.Budget_tripped _ -> true | _ -> false)
      (Obs.Trace.events session)
  in
  check_int "one Budget_tripped event" 1 (List.length trips);
  match Obs.Trace.last_provenance () with
  | Some p ->
    check "provenance tripped" true
      (p.Obs.Trace.outcome = Obs.Trace.Tripped `Depth)
  | None -> Alcotest.fail "starved scan must record provenance"

(* ------------------------------------------------------------------ *)
(* JSON parser corners (the exporters rely on escaping round-trips)    *)
(* ------------------------------------------------------------------ *)

let test_json_corners () =
  let roundtrip j =
    match Obs.Json.of_string (Obs.Json.to_string j) with
    | Ok j' -> j' = j
    | Error _ -> false
  in
  check "escapes" true
    (roundtrip (Obs.Json.String "quote\" slash\\ newline\n tab\t \x01"));
  check "nested" true
    (roundtrip
       (Obs.Json.Obj
          [ ("a", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Null ]);
            ("b", Obs.Json.Obj [ ("c", Obs.Json.Bool false) ]);
          ]));
  check "float" true (roundtrip (Obs.Json.Float 0.125));
  check "rejects garbage" true
    (match Obs.Json.of_string "{\"a\": 1,}" with Error _ -> true | Ok _ -> false);
  check "rejects trailing" true
    (match Obs.Json.of_string "1 2" with Error _ -> true | Ok _ -> false);
  check "unicode escape" true
    (match Obs.Json.of_string "\"\\u0041\"" with
    | Ok (Obs.Json.String "A") -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)

let suite =
  List.map wrap
    [
      Alcotest.test_case "disabled sink is silent" `Quick
        test_disabled_is_silent;
      Alcotest.test_case "results identical on/off" `Quick
        test_results_identical_on_off;
      Alcotest.test_case "ring buffer bounds" `Quick test_ring_bounds;
      Alcotest.test_case "chrome export round-trips" `Quick
        test_chrome_roundtrip;
      Alcotest.test_case "jsonl export round-trips" `Quick
        test_jsonl_roundtrip;
      QCheck_alcotest.to_alcotest prop_bucket_bounds;
      QCheck_alcotest.to_alcotest prop_bucket_monotone;
      QCheck_alcotest.to_alcotest prop_hist_merge;
      Alcotest.test_case "histogram observe" `Quick test_hist_observe;
      Alcotest.test_case "provenance recorded" `Quick test_provenance_recorded;
      Alcotest.test_case "provenance amend and cap" `Quick
        test_provenance_amend_and_cap;
      Alcotest.test_case "budget trip traced" `Quick test_budget_trip_traced;
      Alcotest.test_case "json corners" `Quick test_json_corners;
    ]
