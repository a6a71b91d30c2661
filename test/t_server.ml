(* Tests for the swsd server stack (lib/server): the framing protocol,
   the request envelope, the hardening contract (malformed and oversized
   requests cost one error response, never the connection — and never
   another session's), structured budget trips, the session registry,
   and bit-identical responses across job counts. *)

module J = Obs.Json
module P = Server.Protocol

let check = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let sock_counter = ref 0

let with_server ?(configure = fun c -> c) f =
  incr sock_counter;
  let path =
    Printf.sprintf "/tmp/swsd-test-%d-%d.sock" (Unix.getpid ()) !sock_counter
  in
  let cfg = configure (Server.Daemon.default_config (P.Unix_sock path)) in
  let daemon = Server.Daemon.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop daemon)
    (fun () -> f (Server.Daemon.bound_addr daemon))

let with_client addr f =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let response_exn = function
  | Ok j -> j
  | Error e -> Alcotest.failf "transport error: %s" e

let status j =
  match J.member "status" j with Some (J.String s) -> s | _ -> "?"

let error_code j =
  match J.member "error" j with
  | Some e -> (
    match J.member "code" e with Some (J.String c) -> c | _ -> "?")
  | None -> "?"

let error_message j =
  match J.member "error" j with
  | Some e -> (
    match J.member "message" e with Some (J.String m) -> m | _ -> "?")
  | None -> "?"

let trace_id j =
  match J.member "trace_id" j with Some (J.String s) -> s | _ -> "?"

(* ------------------------------------------------------------------ *)
(* Basics: ping, trace ids, unknown methods                            *)
(* ------------------------------------------------------------------ *)

let test_ping_and_trace_ids () =
  with_server (fun addr ->
      with_client addr (fun c ->
          let r1 = response_exn (Server.Client.call c ~meth:"ping" ~params:[]) in
          let r2 = response_exn (Server.Client.call c ~meth:"ping" ~params:[]) in
          check_string "ok" "ok" (status r1);
          check_string "first trace id" "s1-r1" (trace_id r1);
          check_string "second trace id" "s1-r2" (trace_id r2);
          check "pong" true
            (match J.member "result" r1 with
            | Some r -> J.member "pong" r = Some (J.Bool true)
            | None -> false);
          let bad =
            response_exn (Server.Client.call c ~meth:"frobnicate" ~params:[])
          in
          check_string "unknown method errors" "error" (status bad);
          check_string "unknown method code" "unknown_method" (error_code bad);
          (* ids echo verbatim, including non-integer ids *)
          let r3 =
            response_exn
              (Server.Client.call ~id:(J.String "abc") c ~meth:"ping"
                 ~params:[])
          in
          check "id echoed" true (J.member "id" r3 = Some (J.String "abc"))))

let test_meta_is_opt_in () =
  with_server (fun addr ->
      with_client addr (fun c ->
          let plain = response_exn (Server.Client.call c ~meth:"ping" ~params:[]) in
          check "no meta by default" true (J.member "meta" plain = None);
          let with_meta =
            response_exn
              (Server.Client.call ~want_meta:true c ~meth:"ping" ~params:[])
          in
          match J.member "meta" with_meta with
          | Some m ->
            check "meta has duration" true (J.member "duration_ms" m <> None);
            check "meta has counters" true (J.member "counters" m <> None)
          | None -> Alcotest.fail "meta requested but absent"))

(* ------------------------------------------------------------------ *)
(* Hardening: malformed and oversized requests                         *)
(* ------------------------------------------------------------------ *)

let test_malformed_never_kills_connection () =
  with_server (fun addr ->
      with_client addr (fun c ->
          (* a second session stays live throughout *)
          with_client addr (fun witness ->
              (* broken JSON *)
              Server.Client.send_raw c "this is not json";
              let r = response_exn (Server.Client.recv c) in
              check_string "parse error status" "error" (status r);
              check_string "parse error code" "parse_error" (error_code r);
              (* valid JSON, broken envelope *)
              Server.Client.send_raw c "[1,2,3]";
              let r = response_exn (Server.Client.recv c) in
              check_string "bad envelope code" "bad_request" (error_code r);
              (* unknown envelope field *)
              Server.Client.send_raw c {|{"method":"ping","bogus":1}|};
              let r = response_exn (Server.Client.recv c) in
              check_string "unknown field code" "bad_request" (error_code r);
              (* depth bomb beyond the wire cap *)
              let bomb =
                {|{"method":"ping","params":|}
                ^ String.make 100 '['
                ^ String.make 100 ']'
                ^ "}"
              in
              Server.Client.send_raw c bomb;
              let r = response_exn (Server.Client.recv c) in
              check_string "depth bomb code" "parse_error" (error_code r);
              (* a lenient-syntax escape in a param must be a parse error *)
              Server.Client.send_raw c
                {|{"method":"register","params":{"name":"\u1_23","spec":"a"}}|};
              let r = response_exn (Server.Client.recv c) in
              check_string "lenient escape rejected" "parse_error" (error_code r);
              (* the retired language-engine selector is an unknown
                 parameter like any other *)
              List.iter
                (fun (meth, params) ->
                  let r =
                    response_exn
                      (Server.Client.call c ~meth
                         ~params:(("strategy", J.String "eager") :: params))
                  in
                  check_string (meth ^ " with strategy") "bad_request" (error_code r);
                  check_string (meth ^ " names strategy")
                    {|unknown parameter "strategy"|} (error_message r))
                [
                  ("check", [ ("service", J.String "(a|b)*a(a|b)") ]);
                  ( "equivalence",
                    [ ("left", J.String "ab"); ("right", J.String "ba") ] );
                ];
              (* the abused connection still works... *)
              let r = response_exn (Server.Client.call c ~meth:"ping" ~params:[]) in
              check_string "connection survives" "ok" (status r);
              (* ...and so does the independent session *)
              let w =
                response_exn (Server.Client.call witness ~meth:"ping" ~params:[])
              in
              check_string "other session unaffected" "ok" (status w))))

let test_oversized_frame_drained () =
  with_server
    ~configure:(fun c -> { c with Server.Daemon.max_frame_bytes = 256 })
    (fun addr ->
      with_client addr (fun c ->
          Server.Client.send_raw c (String.make 4096 'x');
          let r = response_exn (Server.Client.recv c) in
          check_string "too large status" "error" (status r);
          check_string "too large code" "too_large" (error_code r);
          (* the stream stayed framed: the next request parses fine *)
          let r = response_exn (Server.Client.call c ~meth:"ping" ~params:[]) in
          check_string "connection survives oversize" "ok" (status r)))

(* ------------------------------------------------------------------ *)
(* Session registry                                                    *)
(* ------------------------------------------------------------------ *)

let register c name spec =
  response_exn
    (Server.Client.call c ~meth:"register"
       ~params:[ ("name", J.String name); ("spec", J.String spec) ])

let list_names c =
  let r = response_exn (Server.Client.call c ~meth:"list" ~params:[]) in
  match J.member "result" r with
  | Some res -> (
    match J.member "components" res with
    | Some (J.List cs) ->
      List.map
        (fun comp ->
          match J.member "name" comp with
          | Some (J.String n) -> n
          | _ -> "?")
        cs
    | _ -> [])
  | None -> []

let test_session_registry () =
  with_server (fun addr ->
      with_client addr (fun c ->
          check_string "register ok" "ok" (status (register c "ab" "ab"));
          check_string "register ok" "ok" (status (register c "ba" "ba"));
          check "list order is registration order" true
            (list_names c = [ "ab"; "ba" ]);
          (* re-registering replaces in place, preserving order *)
          check_string "re-register ok" "ok" (status (register c "ab" "(ab)*"));
          check "re-register keeps order" true (list_names c = [ "ab"; "ba" ]);
          (* bad spec is a bad_request, not a crash *)
          let bad = register c "broken" "((" in
          check_string "bad spec code" "bad_request" (error_code bad);
          (* components are per-session: a fresh connection sees none *)
          with_client addr (fun c2 ->
              check "fresh session has no components" true (list_names c2 = []));
          (* unknown refs are structured errors *)
          let r =
            response_exn
              (Server.Client.call c ~meth:"check"
                 ~params:
                   [ ("service", J.Obj [ ("ref", J.String "nosuch") ]) ])
          in
          check_string "unknown component code" "unknown_component"
            (error_code r);
          (* unregister *)
          let r =
            response_exn
              (Server.Client.call c ~meth:"unregister"
                 ~params:[ ("name", J.String "ba") ])
          in
          check_string "unregister ok" "ok" (status r);
          check "ba gone" true (list_names c = [ "ab" ])))

(* ------------------------------------------------------------------ *)
(* Budgets: trips are structured, never hangs                          *)
(* ------------------------------------------------------------------ *)

let mdtb_params budget =
  [ ("goal", J.String "(ab)*");
    ("components", J.List [ J.String "ab"; J.String "ba" ]);
    ("mode", J.String "mdtb");
    ("budget", budget);
  ]

let test_budget_trips () =
  with_server (fun addr ->
      with_client addr (fun c ->
          (* node budget: structured exhausted response *)
          let r =
            response_exn
              (Server.Client.call c ~meth:"compose"
                 ~params:(mdtb_params (J.Obj [ ("max_nodes", J.Int 1) ])))
          in
          check_string "node trip status" "exhausted" (status r);
          (match J.member "exhausted" r with
          | Some e ->
            check "limit is nodes" true
              (J.member "limit" e = Some (J.String "nodes"));
            check "nodes_expanded reported" true
              (match J.member "nodes_expanded" e with
              | Some (J.Int n) -> n >= 1
              | _ -> false)
          | None -> Alcotest.fail "exhausted payload missing");
          (* zero deadline: still answers (trips), never hangs *)
          let r =
            response_exn
              (Server.Client.call c ~meth:"compose"
                 ~params:(mdtb_params (J.Obj [ ("deadline_s", J.Float 0.) ])))
          in
          check_string "deadline trip status" "exhausted" (status r);
          (* an invalid budget is a bad_request *)
          let r =
            response_exn
              (Server.Client.call c ~meth:"compose"
                 ~params:(mdtb_params (J.Obj [ ("max_nodes", J.Int (-1)) ])))
          in
          check_string "negative budget rejected" "bad_request" (error_code r);
          (* plan-space exhaustion without tripping is a decisive no *)
          let r =
            response_exn
              (Server.Client.call c ~meth:"compose"
                 ~params:
                   [ ("goal", J.String "(ab)*");
                     ("components", J.List [ J.String "ab"; J.String "ba" ]);
                     ("mode", J.String "mdtb");
                   ])
          in
          check_string "decisive no is ok" "ok" (status r);
          check "found false" true
            (match J.member "result" r with
            | Some res -> J.member "found" res = Some (J.Bool false)
            | None -> false)))

(* ------------------------------------------------------------------ *)
(* Determinism: responses bit-identical across job counts              *)
(* ------------------------------------------------------------------ *)

(* The same scripted session (registers, checks, compositions — no meta)
   must produce byte-identical response sequences on a 1-job and a 4-job
   server. *)
let scripted_session addr =
  with_client addr (fun c ->
      let calls =
        [ ("ping", []);
          ("register", [ ("name", J.String "ab"); ("spec", J.String "ab") ]);
          ("register", [ ("name", J.String "ba"); ("spec", J.String "ba") ]);
          ("list", []);
          ("check", [ ("service", J.String "(ab)+c") ]);
          ("kprefix", [ ("service", J.String "ab(a|b)*") ]);
          ( "equivalence",
            [ ("left", J.String "(ab)*"); ("right", J.String "(ab)*(ab)?") ] );
          ("compose", [ ("goal", J.String "(ab)*") ]);
          ( "compose",
            [ ("goal", J.String "(ab)*"); ("mode", J.String "mdtb") ] );
          (* NOT "stats": like the opt-in [meta] field, the stats method
             reports measurement counters (e.g. per-domain allocation
             counts), which are excluded from the bit-identical
             guarantee *)
        ]
      in
      List.map
        (fun (meth, params) ->
          J.to_string (response_exn (Server.Client.call c ~meth ~params)))
        calls)

let test_deterministic_across_jobs () =
  let run jobs =
    Par.Pool.set_jobs (Some jobs);
    Fun.protect
      ~finally:(fun () -> Par.Pool.set_jobs None)
      (fun () ->
        with_server
          ~configure:(fun c -> { c with Server.Daemon.jobs = Some jobs })
          scripted_session)
  in
  let seq = run 1 in
  let par = run 4 in
  check_int "same response count" (List.length seq) (List.length par);
  List.iteri
    (fun i (a, b) ->
      check_string (Printf.sprintf "response %d bit-identical" i) a b)
    (List.combine seq par)

(* ------------------------------------------------------------------ *)
(* Reply-cache keys across answer conventions                          *)
(* ------------------------------------------------------------------ *)

(* L2 replies outlive the binary in snapshots.  An entry stored under the
   key shape of the earlier answer convention (the method name alone),
   restored as a snapshot load restores it, is never served: the reply is
   recomputed and carries the shortest witness. *)
let test_old_l2_keys_never_served () =
  Sws.Engine.cache_clear_all ();
  let regex s = Marshal.to_string (Automata.Regex.parse s) [ Marshal.No_sharing ] in
  let stale_eq =
    J.Obj
      [ ("equivalent", J.Bool false);
        ("distinguishing_len", J.Int 4);
        ("counterexample", J.String "ac#.") ]
  and stale_check = J.Obj [ ("states", J.Int 0) ] in
  let entry parts payload =
    let k = Cache.Store.Key.of_parts parts in
    { Cache.Store.d_fp = k.Cache.Store.Key.fp; d_repr = k.Cache.Store.Key.repr;
      d_value = J.to_string payload }
  in
  let restored =
    Cache.Store.restore_persistable
      [ { Cache.Store.d_tag = "server/l2"; d_abi_sensitive = false;
          d_entries =
            [ entry [ "equivalence"; regex "((c|a)|(c|c))c"; regex "b*" ] stale_eq;
              entry [ "check"; regex "(ab)+c" ] stale_check ] } ]
  in
  check_int "both stale entries restored" 2
    (Option.value ~default:0 (List.assoc_opt "server/l2" restored));
  with_server (fun addr ->
      with_client addr (fun c ->
          List.iter
            (fun (meth, params, stale) ->
              let r =
                response_exn (Server.Client.call ~want_meta:true c ~meth ~params)
              in
              check_string (meth ^ " ok") "ok" (status r);
              check (meth ^ " recomputed") true
                (Option.bind (J.member "meta" r) (J.member "cache")
                 |> Fun.flip Option.bind (J.member "source")
                = Some (J.String "miss"));
              check (meth ^ " not the stale reply") true
                (J.member "result" r <> Some stale))
            [ ( "equivalence",
                [ ("left", J.String "((c|a)|(c|c))c"); ("right", J.String "b*") ],
                stale_eq );
              ("check", [ ("service", J.String "(ab)+c") ], stale_check) ];
          let r =
            response_exn
              (Server.Client.call c ~meth:"equivalence"
                 ~params:
                   [ ("left", J.String "((c|a)|(c|c))c"); ("right", J.String "b*") ])
          in
          check "the empty session distinguishes" true
            (Option.bind (J.member "result" r) (J.member "distinguishing_len")
            = Some (J.Int 2))))

(* ------------------------------------------------------------------ *)
(* Warm restart: the snapshot's component registry seeds new sessions   *)
(* ------------------------------------------------------------------ *)

let meta_source r =
  match
    Option.bind (J.member "meta" r) (fun m ->
        Option.bind (J.member "cache" m) (J.member "source"))
  with
  | Some (J.String s) -> s
  | _ -> "absent"

(* A session registers [w0], checks it by reference and snapshots.  A
   restarted daemon's fresh session is seeded with [w0], so the same
   request answers byte-identically from the restored L2; re-registering
   [w0] under another spec recomputes it. *)
let test_comp_seeding () =
  let path = Filename.temp_file "swsd-test-comp" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let configure c = { c with Server.Daemon.snapshot = Some path } in
  let call c meth params =
    response_exn (Server.Client.call ~want_meta:true c ~meth ~params)
  in
  let check_w0 c =
    call c "check" [ ("service", J.Obj [ ("ref", J.String "w0") ]) ]
  in
  Sys.remove path;
  Sws.Engine.cache_clear_all ();
  let first =
    with_server ~configure (fun addr ->
        with_client addr (fun c ->
            check_string "registered" "ok"
              (status
                 (call c "register"
                    [ ("name", J.String "w0"); ("spec", J.String "(ab)+c") ]));
            let r = check_w0 c in
            check_string "computed" "miss" (meta_source r);
            check_string "snapshot taken" "ok" (status (call c "snapshot" []));
            r))
  in
  Sws.Engine.cache_clear_all ();
  with_server ~configure (fun addr ->
      with_client addr (fun c ->
          let r = check_w0 c in
          check_string "the seeded reference resolves" "ok" (status r);
          check_string "served from the restored L2" "l2" (meta_source r);
          check_string "byte-identical answer"
            (J.to_string (Option.get (J.member "result" first)))
            (J.to_string (Option.get (J.member "result" r)));
          check_string "re-registered" "ok"
            (status
               (call c "register"
                  [ ("name", J.String "w0"); ("spec", J.String "(ba)+cc") ]));
          let r' = check_w0 c in
          check_string "the new spec is recomputed" "miss" (meta_source r');
          check "and answers differently" true
            (J.member "result" r' <> J.member "result" r)))

(* ------------------------------------------------------------------ *)
(* Concurrent sessions                                                 *)
(* ------------------------------------------------------------------ *)

let test_concurrent_sessions () =
  with_server (fun addr ->
      let per_client = 10 in
      let failures = Atomic.make 0 in
      let client () =
        with_client addr (fun c ->
            for i = 0 to per_client - 1 do
              let meth = if i mod 2 = 0 then "ping" else "check" in
              let params =
                if meth = "check" then [ ("service", J.String "(ab)+c") ]
                else []
              in
              match Server.Client.call c ~meth ~params with
              | Ok r when status r = "ok" -> ()
              | _ -> Atomic.incr failures
            done)
      in
      let threads = List.init 4 (fun _ -> Thread.create client ()) in
      List.iter Thread.join threads;
      check_int "no failures across concurrent sessions" 0
        (Atomic.get failures))

let test_close_method () =
  with_server (fun addr ->
      with_client addr (fun c ->
          let r = response_exn (Server.Client.call c ~meth:"close" ~params:[]) in
          check_string "close is ok" "ok" (status r);
          (* server closed its end: the next call fails as transport *)
          match Server.Client.call c ~meth:"ping" ~params:[] with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "connection should be closed"))

let suite =
  [
    ("ping and trace ids", `Quick, test_ping_and_trace_ids);
    ("meta is opt-in", `Quick, test_meta_is_opt_in);
    ( "malformed requests never kill the connection",
      `Quick,
      test_malformed_never_kills_connection );
    ("oversized frames are drained", `Quick, test_oversized_frame_drained);
    ("session registry", `Quick, test_session_registry);
    ("budget trips are structured", `Quick, test_budget_trips);
    ("responses identical across jobs", `Quick, test_deterministic_across_jobs);
    ("old reply-cache keys are never served", `Quick, test_old_l2_keys_never_served);
    ("a snapshot's components seed restarted sessions", `Quick, test_comp_seeding);
    ("concurrent sessions", `Quick, test_concurrent_sessions);
    ("close method", `Quick, test_close_method);
  ]
